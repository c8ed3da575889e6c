"""``repro live``: topology in, supervised world out, merged report back.

:class:`LiveWorld` is the lifecycle every live harness runs on (this
one, ``repro serve``, ``repro explore``): run dir → collector → ports →
manifest → supervisor → pump → sweep → drain → artifacts → cleanup.
:func:`run_live` is the deployment plane's experiment harness on top of
it — the live twin of :func:`repro.experiments.sc98.run_sc98`:

1. allocate ports, write the bootstrap manifest, start the collector;
2. spawn every node as a real OS process under the :class:`Supervisor`;
3. pump the collector + supervision loop until the deadline (optionally
   SIGKILLing one node mid-run — the chaos knob — to demonstrate
   restart-with-backoff plus scheduler-side work requeue on real
   sockets);
4. while the world is still up, probe the persistent state service over
   the wire and run every stored counter-example through
   :func:`repro.ramsey.verify.verify_counter_example_object`;
5. drain gracefully (SIGTERM → final telemetry flush → SIGKILL
   stragglers) and assemble a :class:`LiveReport` — merged Chrome trace,
   merged metrics snapshot, merged logs, per-node supervision history,
   and the invariant checklist (:func:`check_invariants`).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import AbstractContextManager, closing
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

from ..core.linguafranca.messages import Message, fresh_req_id
from ..core.linguafranca.tcp import TcpClient, TcpServer, TransportError
from ..core.services.persistent import PST_FETCH, PST_KEYS, PST_LIST, PST_VALUE
from ..core.telemetry import write_trace_json
from ..ramsey.verify import ValidationError, verify_counter_example_object
from .collector import Collector
from .ports import PortAllocator
from .supervisor import RestartPolicy, Supervisor
from .topology import Manifest, Topology, build_manifest

__all__ = ["Probe", "ReportDoc", "LiveReport", "never_restarted",
           "check_invariants", "LiveWorld", "run_live"]

#: Stored counter-examples fetched per persistent node when probing.
MAX_PROBED_KEYS = 64


class Probe:
    """A one-shot lingua-franca endpoint for querying a live world.

    NetDriver replies travel as fresh connections to ``message.sender``
    (datagram-style), so a plain request socket never sees them — the
    probe brings its own listening server and correlates replies by
    ``req_id``, exactly like a real EveryWare peer.
    """

    def __init__(self, host: str = "127.0.0.1") -> None:
        self.server = TcpServer(host, 0, self._handle)
        self.client = TcpClient(sender=self.server.contact)
        self._replies: list[Message] = []

    @property
    def contact(self) -> str:
        return self.server.contact

    def _handle(self, message: Message) -> Optional[Message]:
        self._replies.append(message)
        return None

    def request(self, contact: str, mtype: str, body: dict,
                timeout: float = 5.0) -> Optional[Message]:
        """Send a request to ``contact`` and wait for its correlated
        reply; None on timeout or unreachable peer."""
        host, _, port = contact.rpartition(":")
        req_id = fresh_req_id()
        try:
            self.client.send(host, int(port), Message(
                mtype=mtype, sender=self.contact, body=body,
                req_id=req_id), timeout=2.0)
        except (TransportError, OSError, ValueError):
            return None
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            self.server.step(0.05)
            for message in self._replies:
                if message.reply_to == req_id:
                    self._replies.remove(message)
                    return message
        return None

    def close(self) -> None:
        self.server.close()
        self.client.close()


class ReportDoc:
    """What the planes' report dataclasses share: ``ok`` and the JSON
    document (every field, plus ``ok``)."""

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["ok"] = self.ok
        return doc


@dataclass
class LiveReport(ReportDoc):
    """Everything a live run produced, in one JSON-safe document."""

    duration: float
    topology: dict
    #: Per-node merge of collector state and supervision history.
    nodes: dict[str, dict]
    #: Stored counter-examples probed from persistent state
    #: (``{"key", "k", "n", "verified"}``).
    counter_examples: list[dict]
    verify_failures: list[str]
    #: Chaos events injected (``{"t", "node", "pid"}``).
    chaos: list[dict]
    #: Merged metrics snapshot (:func:`merge_snapshots` shape).
    metrics: dict
    collector: dict
    violations: list[str] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)


def never_restarted(nodes: dict[str, dict], chaos: list[dict]) -> list[str]:
    """One violation per killed node the supervisor never brought back."""
    return [f"{c['node']} was killed but never restarted" for c in chaos
            if nodes.get(c["node"], {}).get("restarts", 0) < 1]


def _counter_total(metrics: dict, prefix: str) -> int:
    return sum(value for key, value in metrics.get("counters", {}).items()
               if key == prefix or key.startswith(prefix + "{"))


def check_invariants(report: LiveReport) -> list[str]:
    """The live world's cross-node consistency checklist.

    Wall-clock runs are nondeterministic, so the CI gate is invariants,
    not byte-diffs: every stored counter-example must verify, no store
    may have been denied, message/assignment accounting must be sane,
    every node must have reported, and an injected kill must leave
    visible recovery evidence (a restart plus a reap or requeue).
    """
    violations: list[str] = []
    for failure in report.verify_failures:
        violations.append(f"counter-example failed verification: {failure}")
    sent = _counter_total(report.metrics, "msg.sent")
    recv = _counter_total(report.metrics, "msg.recv")
    # An abruptly-killed incarnation takes its unshipped send counts
    # with it (its peers already counted the receives), so the strict
    # direction only binds when every process died a clean death.
    unclean = bool(report.chaos) or any(
        node.get("restarts", 0) for node in report.nodes.values())
    if recv > sent and not unclean:
        violations.append(f"received more messages than were sent "
                          f"({recv} > {sent})")
    for name, node in sorted(report.nodes.items()):
        role = node.get("role")
        stats = node.get("stats", {})
        if not node.get("reports"):
            violations.append(f"{name}: never shipped a telemetry report")
        if role == "scheduler":
            if stats.get("units_completed", 0) > stats.get("units_assigned", 0):
                violations.append(
                    f"{name}: completed {stats['units_completed']} units "
                    f"but only assigned {stats['units_assigned']}")
        if role == "persistent" and stats.get("denials", 0):
            violations.append(
                f"{name}: denied {stats['denials']} store(s) — a client "
                f"shipped a corrupt counter-example")
    violations += never_restarted(report.nodes, report.chaos)
    if report.chaos:
        recovery = sum(
            node.get("stats", {}).get("units_requeued", 0)
            + node.get("stats", {}).get("reaps", 0)
            for node in report.nodes.values()
            if node.get("role") == "scheduler")
        if recovery == 0:
            violations.append("a client was killed but no scheduler ever "
                              "reaped or requeued its work")
    return violations


def _probe_counter_examples(
    probe: Probe, manifest: Manifest
) -> tuple[list[dict], list[str]]:
    """LIST+FETCH every ``ramsey/`` key on every persistent node and
    verify the stored objects; returns (records, failure strings)."""
    found: list[dict] = []
    failures: list[str] = []
    for contact in manifest.contacts_for("persistent"):
        listing = probe.request(contact, PST_LIST, {"prefix": "ramsey/"})
        if listing is None or listing.mtype != PST_KEYS:
            failures.append(f"{contact}: persistent LIST went unanswered")
            continue
        keys = [k for k in listing.body.get("keys", []) if isinstance(k, str)]
        for key in keys[:MAX_PROBED_KEYS]:
            reply = probe.request(contact, PST_FETCH, {"key": key})
            if reply is None or reply.mtype != PST_VALUE:
                failures.append(f"{key}: fetch went unanswered")
                continue
            obj = reply.body.get("object", {})
            record = {"key": key, "k": obj.get("k"), "n": obj.get("n"),
                      "verified": False}
            try:
                verify_counter_example_object(obj)
                record["verified"] = True
            except ValidationError as exc:
                failures.append(f"{key}: {exc}")
            found.append(record)
    return found, failures


class LiveWorld(AbstractContextManager):
    """One supervised world's lifecycle, shared by ``repro live``,
    ``repro serve`` and ``repro explore`` (DESIGN §11).

    Construction allocates the run directory (``out``, or a temp dir),
    the collector, the ports, the manifest and the supervisor, and spawns
    every node; leaving the ``with`` block — on any exit — kills what is
    still running, releases the ports, closes the collector and removes
    the temp dir. In between, the harness calls :meth:`pump` from its own
    loop: the 1 Hz health check and the one scheduled SIGKILL ride on it
    (``kill_node`` — default: the first ``victim_role`` node — at
    ``kill_at`` seconds, inside the ``duration`` window). Nodes live for
    ``duration + grace``, so a verify sweep runs against a live (possibly
    restarted) gateway instead of racing their deadline.
    """

    def __init__(
        self,
        topology: Topology,
        duration: float,
        grace: float = 0.0,
        kill_at: Optional[float] = None,
        kill_node: Optional[str] = None,
        victim_role: str = "client",
        out: Optional[str] = None,
        restart: Optional[RestartPolicy] = None,
        host: str = "127.0.0.1",
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if kill_node is None:
            victims = topology.by_role(victim_role)
            kill_node = victims[0].name if victims else None
        elif kill_node not in {spec.name for spec in topology.nodes}:
            raise ValueError(f"kill_node {kill_node!r} not in topology")
        self.topology = topology
        self.duration = duration
        self.kill_at = kill_at if kill_node is not None else None
        self.kill_node = kill_node
        self.out = out
        self.progress = progress
        #: Chaos events injected (``{"t", "node", "pid"}``).
        self.chaos: list[dict] = []
        self._health_at = 1.0
        self._tmp = self.collector = self.allocator = self.supervisor = None
        try:
            if out is not None:
                os.makedirs(out, exist_ok=True)
                run_dir = out
            else:
                self._tmp = tempfile.TemporaryDirectory(prefix="repro-live-")
                run_dir = self._tmp.name
            self.manifest_path = os.path.join(run_dir, "manifest.json")
            self.collector = Collector(host=host)
            self.allocator = PortAllocator(host)
            self.manifest = build_manifest(topology, self.collector.contact,
                                           host=host, allocator=self.allocator)
            self.manifest.write(self.manifest_path)
            self.supervisor = Supervisor(
                self.manifest, self.manifest_path, deadline=duration + grace,
                collector=self.collector, restart=restart,
                log_dir=os.path.join(run_dir, "node-logs"))
            self.allocator.release()
            self.supervisor.spawn_all()
        except BaseException:
            self.close()
            raise

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self.supervisor is not None and self.supervisor.alive_count():
            self.supervisor.drain(grace=0.0)
        if self.allocator is not None:
            self.allocator.release()
        if self.collector is not None:
            self.collector.close()
        if self._tmp is not None:
            self._tmp.cleanup()

    def say(self, text: str) -> None:
        if self.progress is not None:
            self.progress(text)

    @property
    def http_contact(self) -> str:
        """``host:port`` of the first gateway's HTTP listener."""
        return self.manifest.http_contacts()[0]

    # -- the loop body ------------------------------------------------------
    def pump(self, timeout: float = 0.005) -> None:
        """One turn: collector I/O, reap/respawn, the 1 Hz health check
        and — once — the scheduled kill."""
        self.collector.step(timeout)
        self.supervisor.poll()
        now = self.supervisor.now()
        if now >= self._health_at:
            self.supervisor.check_health()
            self._health_at = now + 1.0
        if self.kill_at is not None and self.kill_at <= now < self.duration:
            self.kill_at = None
            pid = self.supervisor.kill(self.kill_node)
            if pid is not None:
                self.chaos.append({"t": round(now, 3), "node": self.kill_node,
                                   "pid": pid})
                self.say(f"chaos: killed {self.kill_node} (pid {pid}) "
                         f"at t={now:.1f}s")

    def wait_healthy(self, client, timeout: float = 15.0) -> None:
        """Pump until the gateway behind ``client`` answers ``/health``
        (it may be freshly spawned or mid-restart) or ``timeout`` passes."""
        from ..control.http import HttpError  # control imports this module

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.pump()
            try:
                client.health()
                return
            except HttpError:
                time.sleep(0.2)

    def sweep_jobs(self, job_ids: list[str]) -> dict:
        """Ask the live gateway about every id it ever accepted: the ids
        ``lost`` (it no longer knows them), the final-``states`` histogram
        of the rest, the ids ``not_done``, the ``requeues`` they took in
        total, and the gateway's own ``work`` stats."""
        from ..control.client import GatewayClient
        from ..control.http import HttpError

        lost: list[str] = []
        not_done: list[str] = []
        states: dict[str, int] = {}
        requeues, work = 0, {}
        with GatewayClient(self.http_contact, timeout=3.0) as client:
            self.wait_healthy(client)
            try:
                work = client.queue()
            except HttpError:
                pass
            for i, job_id in enumerate(job_ids):
                if i % 200 == 0:
                    self.pump()
                try:
                    job = client.job(job_id) or {}
                except HttpError:
                    job = {}
                if not job:
                    lost.append(job_id)
                else:
                    state = str(job.get("state"))
                    states[state] = states.get(state, 0) + 1
                    requeues += int(job.get("requeues", 0))
                if job.get("state") != "done":
                    not_done.append(job_id)
        return {"lost": lost, "states": states, "not_done": not_done,
                "requeues": requeues, "work": work}

    def drain(self) -> dict[str, dict]:
        """Shut the world down gracefully (SIGTERM → final telemetry
        flush → SIGKILL stragglers) and return the per-node merge of
        collector state and supervision history. Work can finish inside
        the supervisor's restart backoff, and draining then would cancel
        the respawn the checklists demand — so first keep the world up
        until every reaped node is back (or the nodes' deadline)."""
        supervisor = self.supervisor
        self.pump()
        while (any(node.state == "backoff"
                   for node in supervisor.nodes.values())
               and supervisor.now() < supervisor.deadline):
            self.pump()
        for _ in range(20):
            self.pump()
        supervisor.drain(pump=self.pump)
        # One final pump so last reports queued during drain all land.
        for _ in range(10):
            self.collector.step(0.01)
        nodes: dict[str, dict] = {}
        statuses = supervisor.statuses()
        for spec in self.topology.nodes:
            rec = self.collector.nodes.get(spec.name)
            nodes[spec.name] = {
                "role": spec.role,
                "contact": self.manifest.contact(spec.name),
                "hellos": rec.hellos if rec else 0,
                "reports": rec.reports if rec else 0,
                "stop_reason": rec.stop_reason if rec else None,
                "stats": dict(rec.stats) if rec else {},
                **statuses.get(spec.name, {}),
            }
        return nodes

    # -- artifacts ----------------------------------------------------------
    def write_json(self, name: str, doc: dict) -> str:
        path = os.path.join(self.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path

    def write_artifacts(self, metrics: dict) -> dict:
        """Into ``out``: the merged Chrome trace, the raw span dicts
        beside it (what ``repro trace --job`` walks) and the merged
        metrics. Returns artifact name → path, manifest included."""
        merged = self.collector.merged_tracer()
        return {
            "manifest": self.manifest_path,
            "trace": write_trace_json(
                merged, os.path.join(self.out, "trace.json")),
            "spans": self.write_json(
                "spans.json", {"spans": [s.to_dict() for s in merged.spans]}),
            "metrics": self.write_json("metrics.json", metrics),
        }

    def write_log(self) -> str:
        """Into ``out``: the merged, time-sorted world log."""
        path = os.path.join(self.out, "log.txt")
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.collector.merged_logs():
                fh.write(f"{line['t']:10.3f} {line['node']:>8} "
                         f"[{line['level']}] {line['text']}\n")
        return path


def run_live(
    topology: Topology,
    duration: float = 12.0,
    kill_at: Optional[float] = None,
    kill_node: Optional[str] = None,
    out: Optional[str] = None,
    restart: Optional[RestartPolicy] = None,
    host: str = "127.0.0.1",
    progress: Optional[Callable[[str], None]] = None,
) -> LiveReport:
    """Stand up ``topology`` as real processes, run it to ``duration``
    wall seconds, and return the merged :class:`LiveReport`.

    ``kill_at`` (seconds into the run) SIGKILLs ``kill_node`` — default:
    the first client — to demonstrate supervisor restart plus scheduler
    requeue on real sockets. With ``out``, the manifest, per-node stdout
    logs, merged ``report.json``/``metrics.json``/``trace.json``, and
    the merged world log land in that directory.
    """
    with LiveWorld(topology, duration, kill_at=kill_at, kill_node=kill_node,
                   out=out, restart=restart, host=host,
                   progress=progress) as world:
        world.say(f"world of {len(topology.nodes)} nodes; "
                  f"manifest {world.manifest_path}")
        while world.supervisor.now() < duration:
            world.pump(0.02)

        # Probe while the services are still alive, then drain.
        with closing(Probe(host)) as probe:
            counter_examples, verify_failures = _probe_counter_examples(
                probe, world.manifest)
        world.say(f"probed {len(counter_examples)} stored "
                  "counter-example(s); draining")
        nodes = world.drain()
        collector = world.collector
        report = LiveReport(
            duration=duration,
            topology=topology.to_dict(),
            nodes=nodes,
            counter_examples=counter_examples,
            verify_failures=verify_failures,
            chaos=world.chaos,
            metrics=collector.merged_metrics(),
            collector={
                "contact": collector.contact,
                "bad_messages": collector.bad_messages,
                "reports": sum(r.reports for r in collector.nodes.values()),
                "duplicate_reports": sum(
                    r.duplicate_reports for r in collector.nodes.values()),
                "final_reports": sum(
                    r.final_reports for r in collector.nodes.values()),
            },
        )
        report.violations = check_invariants(report)
        if out is not None:
            report.artifacts = world.write_artifacts(report.metrics)
            report.artifacts["log"] = world.write_log()
            report.artifacts["report"] = world.write_json(
                "report.json", report.to_dict())
        return report

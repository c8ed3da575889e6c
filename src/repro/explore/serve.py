"""``repro explore``: the ME subsystem on the live plane.

Same world as ``repro serve`` — gateway + gossip + persistent + logger +
computational-client processes under the supervisor — but the external
workload is a real model-exploration algorithm instead of a synthetic
storm: the ME driver runs in *this* process, pushing evaluation batches
over HTTP through an :class:`~repro.explore.queue.ExploreQueue` and
consuming results, while the unchanged clients execute whatever kind
they are handed (their :class:`~repro.core.services.kinds.KindEngine`
dispatches ``explore.eval`` units to the ExploreEngine).

Chaos is the tentpole's live gate: SIGKILL a computational client
mid-sweep and the world must deliver every pushed evaluation anyway —
the scheduler reaps the dead client's assignment, requeues it, another
client (or the supervisor-restarted incarnation) re-executes, and the
WorkQueue accepts exactly one completion per evaluation. The report
carries the checklist: all pushed ids ``done``, completions == pushed,
the killed node restarted, and — whenever the kill landed mid-unit —
at least one requeue observed.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..control.client import GatewayClient
from ..control.http import HttpError
from ..live.collector import Collector
from ..live.ports import PortAllocator
from ..live.supervisor import RestartPolicy, Supervisor
from ..live.topology import Topology, build_manifest, serve_topology
from .drivers import make_driver, run_driver
from .queue import ExploreQueue
from . import engine as _engine  # noqa: F401  (registers the kind)

__all__ = ["ExploreConfig", "run_explore"]


@dataclass
class ExploreConfig:
    """Knobs for one live ``repro explore`` run."""

    algo: str = "sweep"
    fn: str = "forecast"
    clients: int = 2
    gossips: int = 1
    gateways: int = 1
    persistents: int = 1
    loggers: int = 1
    #: ME pump deadline (wall seconds) — the driver must finish inside.
    duration: float = 60.0
    #: Workload scale factor passed to :func:`make_driver`.
    scale: float = 1.0
    #: Grid cost per evaluation (~0.25 s at the topology's 300k ops/s).
    ops_budget: float = 75_000.0
    #: SIGKILL a node this many seconds in (None = no chaos).
    kill_at: Optional[float] = None
    #: Which node to kill (None = the first computational client).
    kill_node: Optional[str] = None
    #: Push each generation through POST /jobs/batch (False = one POST
    #: /jobs per task; the bench measures the difference).
    batch: bool = True
    seed: int = 0
    host: str = "127.0.0.1"

    def topology(self) -> Topology:
        return serve_topology(
            clients=self.clients, gossips=self.gossips,
            gateways=self.gateways, persistents=self.persistents,
            loggers=self.loggers, seed=self.seed)


def _check_explore(report: dict) -> list[str]:
    """The live ME checklist (the sim twin gates on byte-diffs; the live
    plane gates on these invariants)."""
    violations: list[str] = []
    summary = report["summary"]
    jobs = report["jobs"]
    if summary.get("timed_out"):
        violations.append(
            f"ME driver timed out after {summary.get('elapsed')}s "
            f"({jobs['done']}/{jobs['pushed']} evaluations done)")
    if jobs["pushed"] == 0:
        violations.append("the ME never got a single evaluation accepted")
    not_done = jobs["not_done"]
    if not_done:
        violations.append(
            f"{len(not_done)} pushed evaluation(s) not done: {not_done[:5]}")
    work = report.get("work_stats") or {}
    if work and work.get("completed", 0) < jobs["pushed"]:
        violations.append(
            f"exactly-once broken: {work.get('completed')} completions "
            f"for {jobs['pushed']} pushed evaluations")
    for chaos in report.get("chaos", []):
        node = report["nodes"].get(chaos["node"], {})
        if node.get("restarts", 0) < 1:
            violations.append(
                f"{chaos['node']} was killed but never restarted")
    return violations


def run_explore(
    config: ExploreConfig,
    out: Optional[str] = None,
    restart: Optional[RestartPolicy] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Stand up the world, run the ME pump against it, verify, report."""
    def say(text: str) -> None:
        if progress is not None:
            progress(text)

    topology = config.topology()
    tmp = None
    if out is not None:
        os.makedirs(out, exist_ok=True)
        run_dir = out
    else:
        tmp = tempfile.TemporaryDirectory(prefix="repro-explore-")
        run_dir = tmp.name
    manifest_path = os.path.join(run_dir, "manifest.json")

    host = config.host
    collector = Collector(host=host)
    allocator = PortAllocator(host)
    queue: Optional[ExploreQueue] = None
    try:
        manifest = build_manifest(topology, collector.contact,
                                  host=host, allocator=allocator)
        manifest.write(manifest_path)
        sweep_grace = 30.0
        supervisor = Supervisor(
            manifest, manifest_path,
            deadline=config.duration + sweep_grace,
            collector=collector, restart=restart,
            log_dir=os.path.join(run_dir, "node-logs"))
        gateway_name = topology.by_role("gateway")[0].name
        http_contact = manifest.http_contact(gateway_name)
        say(f"world of {len(topology.nodes)} nodes; "
            f"gateway HTTP at {http_contact}")
        allocator.release()
        supervisor.spawn_all()

        kill_target = config.kill_node
        if kill_target is None:
            client_specs = topology.by_role("client")
            kill_target = client_specs[0].name if client_specs else None
        if config.kill_at is not None and kill_target not in supervisor.nodes:
            raise ValueError(f"kill_node {kill_target!r} not in topology")

        chaos: list[dict] = []
        state = {"killed": False, "health_at": 1.0, "t0": time.monotonic()}

        def pump() -> None:
            collector.step(0.005)
            supervisor.poll()
            now = supervisor.now()
            if now >= state["health_at"]:
                supervisor.check_health()
                state["health_at"] = now + 1.0
            if (config.kill_at is not None and not state["killed"]
                    and now >= config.kill_at):
                state["killed"] = True
                pid = supervisor.kill(kill_target)
                if pid is not None:
                    chaos.append({"t": round(now, 3), "node": kill_target,
                                  "pid": pid})
                    say(f"chaos: killed {kill_target} (pid {pid}) "
                        f"at t={now:.1f}s")

        driver = make_driver(config.algo, seed=config.seed, fn=config.fn,
                             ops_budget=config.ops_budget,
                             scale=config.scale)
        queue = ExploreQueue(GatewayClient(http_contact, timeout=3.0),
                             batch=config.batch, pump=pump)
        # Wait for the gateway to answer before the first push — the
        # nodes were spawned an instant ago and may still be binding.
        ready_deadline = time.monotonic() + 15.0
        while time.monotonic() < ready_deadline:
            pump()
            try:
                queue.client.health()
                break
            except HttpError:
                time.sleep(0.2)
        say(f"running {config.algo!r} over fn={config.fn!r} "
            f"(batch={config.batch})")
        summary = run_driver(driver, queue, timeout=config.duration,
                             poll_timeout=5.0)
        say(f"ME finished: {summary['evals']} evaluations consumed in "
            f"{summary['elapsed']:.1f}s, best={summary.get('best')}")

        # The ME can outrun the supervisor's restart backoff: the reaper
        # requeues the dead client's unit, the survivors finish the sweep,
        # and draining now would cancel the respawn the checklist demands.
        # Keep the world up until every reaped node is back.
        pump()
        while (any(node.state == "backoff"
                   for node in supervisor.nodes.values())
               and supervisor.now() < supervisor.deadline):
            pump()

        # Verify sweep against the live gateway: every pushed id must be
        # done, exactly once (requeues allowed, extra completions not).
        states: dict[str, int] = {}
        not_done: list[str] = []
        requeues_total = 0
        work_stats: dict = {}
        with GatewayClient(http_contact, timeout=3.0) as verify:
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                pump()
                try:
                    verify.health()
                    break
                except HttpError:
                    time.sleep(0.2)
            try:
                work_stats = verify.queue()
            except HttpError:
                work_stats = {}
            for job_id in queue.pushed_ids:
                try:
                    doc = verify.job(job_id)
                except HttpError:
                    doc = None
                state_name = str((doc or {}).get("state"))
                states[state_name] = states.get(state_name, 0) + 1
                requeues_total += int((doc or {}).get("requeues", 0))
                if state_name != "done":
                    not_done.append(job_id)

        for _ in range(20):
            pump()
        supervisor.drain(pump=pump)
        for _ in range(10):
            collector.step(0.01)

        nodes: dict[str, dict] = {}
        statuses = supervisor.statuses()
        for spec in topology.nodes:
            rec = collector.nodes.get(spec.name)
            nodes[spec.name] = {
                "role": spec.role,
                "contact": manifest.contact(spec.name),
                "hellos": rec.hellos if rec else 0,
                "reports": rec.reports if rec else 0,
                "stop_reason": rec.stop_reason if rec else None,
                "stats": dict(rec.stats) if rec else {},
                **statuses.get(spec.name, {}),
            }
        report = {
            "config": {
                "algo": config.algo, "fn": config.fn,
                "clients": config.clients, "duration": config.duration,
                "scale": config.scale, "ops_budget": config.ops_budget,
                "kill_at": config.kill_at, "kill_node": kill_target,
                "batch": config.batch, "seed": config.seed,
            },
            "topology": topology.to_dict(),
            "summary": summary,
            "queue": queue.stats(),
            "jobs": {
                "pushed": queue.pushed,
                "done": states.get("done", 0),
                "states": states,
                "not_done": sorted(not_done),
                "still_outstanding": sorted(queue.outstanding),
                "requeues_total": requeues_total,
            },
            "work_stats": work_stats,
            "nodes": nodes,
            "chaos": chaos,
            "metrics": collector.merged_metrics(),
        }
        report["violations"] = _check_explore(report)
        report["ok"] = not report["violations"]

        if out is not None:
            report_path = os.path.join(out, "explore_report.json")
            with open(report_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
                fh.write("\n")
            report["artifacts"] = {"manifest": manifest_path,
                                   "report": report_path}
        return report
    finally:
        if queue is not None:
            queue.client.close()
        allocator.release()
        collector.close()
        if tmp is not None:
            tmp.cleanup()

"""``repro serve``: the control plane stood up as real OS processes.

:func:`run_serve` is to the gateway what :func:`repro.live.harness.run_live`
is to the SC98 world: allocate ports, write the manifest, spawn gossip /
gateway / persistent / logger / Ramsey-client nodes under the
:class:`~repro.live.supervisor.Supervisor`, then drive a
:class:`~repro.control.loadgen.GatewayStorm` of synthetic HTTP users
against the gateway while the world runs — optionally SIGKILLing the
gateway mid-storm to demonstrate the control plane's central invariant
on real sockets: **no accepted job is lost across a gateway
kill/restart** (requeued from the journal, not dropped). After the storm
quiesces, a verify sweep asks the (possibly restarted) gateway for every
job id it ever answered 201 for; ids it no longer knows are violations.

Submitted job specs are real Ramsey work units
(:func:`ramsey_job_spec`), so the live clients actually execute what the
storm submits — the full externally-submitted-work path, HTTP user to
computational client and back.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..live.collector import Collector
from ..live.harness import LiveWorld, ReportDoc, never_restarted
from ..live.supervisor import RestartPolicy
from ..live.topology import Topology, serve_topology
from ..ramsey.tasks import ramsey_job_spec
from .client import GatewayClient
from .http import HttpError
from .loadgen import GatewayStorm

__all__ = ["ServeConfig", "ServeReport", "check_serve_invariants",
           "run_serve"]


@dataclass
class ServeConfig:
    """Knobs for one ``repro serve`` run."""

    clients: int = 2
    gateways: int = 1
    gossips: int = 1
    persistents: int = 1
    loggers: int = 1
    #: Concurrent synthetic HTTP users in the storm.
    storm_clients: int = 50
    duration: float = 10.0
    #: SIGKILL the first gateway this many seconds in (None = no chaos).
    kill_at: Optional[float] = None
    #: Which node the chaos knob kills (None = the first gateway). Kill
    #: a client instead to watch a job's trace span two incarnations:
    #: accept on the first life, requeue, finish on the second.
    kill_node: Optional[str] = None
    #: Publish collector-derived per-site utilisation gauges to the
    #: gateway this often (0 = never).
    sites_period: float = 2.0
    #: Storm connections recycle after this many responses (0 = never).
    churn_every: int = 0
    submit_fraction: float = 0.5
    cancel_fraction: float = 0.1
    seed: int = 0
    k: int = 8
    n: int = 4
    host: str = "127.0.0.1"

    def topology(self) -> Topology:
        return serve_topology(
            clients=self.clients, gossips=self.gossips,
            gateways=self.gateways, persistents=self.persistents,
            loggers=self.loggers, seed=self.seed, k=self.k, n=self.n)


@dataclass
class ServeReport(ReportDoc):
    """Everything one serve run produced, in one JSON-safe document."""

    duration: float
    topology: dict
    nodes: dict[str, dict]
    storm: dict
    #: Jobs the gateway answered 201 for, total.
    accepted: int
    #: Accepted ids the post-run sweep could not find — must be empty.
    jobs_lost: list[str]
    #: Final-state histogram over the accepted ids.
    job_states: dict[str, int]
    chaos: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)


def check_serve_invariants(report: ServeReport) -> list[str]:
    """The control plane's consistency checklist (wall-clock runs gate
    on invariants, the simulated twin on byte-diffs)."""
    violations: list[str] = []
    if report.jobs_lost:
        violations.append(
            f"{len(report.jobs_lost)} accepted job(s) lost: "
            f"{report.jobs_lost[:5]}")
    if report.accepted == 0 and report.storm.get("submitted", 0) == 0:
        violations.append("the storm never got a single job accepted")
    for name, node in sorted(report.nodes.items()):
        if not node.get("reports"):
            violations.append(f"{name}: never shipped a telemetry report")
    return violations + never_restarted(report.nodes, report.chaos)


def _site_rollup(collector: Collector, topology: Topology,
                 elapsed: float) -> dict:
    """Per-site delivered-vs-available (§2.2's utilisation meters),
    computed from the clients' shipped stats. Delivered is each client's
    latest-incarnation ops counter (a restart resets it — the meter dips
    honestly when a site loses a machine); available is what the site
    *could* have delivered: clients x topology speed x elapsed."""
    sites: dict[str, dict] = {}
    for spec in topology.by_role("client"):
        site = str(spec.options.get("site", "")) or "default"
        row = sites.setdefault(site, {"clients": 0, "delivered_ops": 0.0,
                                      "available_ops": 0.0})
        row["clients"] += 1
        row["available_ops"] += topology.speed * max(elapsed, 0.0)
        rec = collector.nodes.get(spec.name)
        stats = rec.stats if rec is not None else {}
        try:
            row["delivered_ops"] += float(stats.get("total_ops", 0.0))
        except (TypeError, ValueError):
            pass
    for row in sites.values():
        avail = row["available_ops"]
        row["utilisation"] = (row["delivered_ops"] / avail
                              if avail > 0 else 0.0)
    return sites


def run_serve(
    config: ServeConfig,
    out: Optional[str] = None,
    restart: Optional[RestartPolicy] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ServeReport:
    """Stand up the control-plane world, storm it, sweep it, report."""
    topology = config.topology()
    with LiveWorld(topology, config.duration, grace=30.0,
                   kill_at=config.kill_at, kill_node=config.kill_node,
                   victim_role="gateway", out=out, restart=restart,
                   host=config.host, progress=progress) as world:
        http_contact = world.http_contact
        world.say(f"world of {len(topology.nodes)} nodes; "
                  f"gateway HTTP at {http_contact}")
        http_host, _, http_port = http_contact.rpartition(":")
        storm = GatewayStorm(
            http_host, int(http_port),
            clients=config.storm_clients, seed=config.seed,
            submit_fraction=config.submit_fraction,
            cancel_fraction=config.cancel_fraction,
            churn_every=config.churn_every,
            spec_factory=lambda r: ramsey_job_spec(
                r, k=config.k, n=config.n))
        with closing(storm), \
                GatewayClient(http_contact, timeout=1.0) as sites_client:
            sites_at = config.sites_period or float("inf")
            while (now := world.supervisor.now()) < config.duration:
                world.pump()
                storm.step(0.005)
                if now >= sites_at:
                    # Push delivered-vs-available to the gateway so /metrics
                    # exposes per-site utilisation; a dead/mid-restart
                    # gateway just misses a beat.
                    try:
                        sites_client.publish_sites(
                            _site_rollup(world.collector, topology, now))
                    except HttpError:
                        pass
                    sites_at = now + config.sites_period
            storm.quiesce(grace=3.0)
        world.say(f"storm done: {storm.stats.submitted} submitted, "
                  f"{storm.stats.queried} queried, "
                  f"{storm.stats.cancelled} cancelled, "
                  f"{len(storm.accepted)} accepted")

        # The sweep runs while the world is still up: every accepted id
        # must still be known to the (possibly restarted) gateway.
        sweep = world.sweep_jobs(storm.accepted)
        nodes = world.drain()
        report = ServeReport(
            duration=config.duration,
            topology=topology.to_dict(),
            nodes=nodes,
            storm=storm.stats.to_dict(),
            accepted=len(storm.accepted),
            jobs_lost=sweep["lost"],
            job_states=sweep["states"],
            chaos=world.chaos,
            metrics=world.collector.merged_metrics(),
        )
        report.violations = check_serve_invariants(report)
        if out is not None:
            report.artifacts = world.write_artifacts(report.metrics)
            report.artifacts["report"] = world.write_json(
                "report.json", report.to_dict())
        return report

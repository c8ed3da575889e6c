"""``repro explore``: the ME subsystem on the live plane.

Same world as ``repro serve`` — gateway + gossip + persistent + logger +
computational-client processes under the supervisor — but the external
workload is a real model-exploration algorithm instead of a synthetic
storm: the ME driver runs in *this* process, pushing evaluation batches
over HTTP through an :class:`~repro.explore.queue.ExploreQueue` and
consuming results, while the unchanged clients execute whatever kind
they are handed (their :class:`~repro.core.services.kinds.KindEngine`
dispatches ``explore.eval`` units to the kind's metered engine).

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

from dataclasses import dataclass
from typing import Callable, Optional

from ..control.client import GatewayClient
from ..live.harness import LiveWorld, never_restarted
from ..live.supervisor import RestartPolicy
from ..live.topology import Topology, serve_topology
from .drivers import make_driver, run_driver
from .queue import ExploreQueue

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
    return violations + never_restarted(report["nodes"], report["chaos"])


def run_explore(
    config: ExploreConfig,
    out: Optional[str] = None,
    restart: Optional[RestartPolicy] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Stand up the world, run the ME pump against it, verify, report."""
    topology = config.topology()
    with LiveWorld(topology, config.duration, grace=30.0,
                   kill_at=config.kill_at, kill_node=config.kill_node,
                   out=out, restart=restart, host=config.host,
                   progress=progress) as world:
        world.say(f"world of {len(topology.nodes)} nodes; "
                  f"gateway HTTP at {world.http_contact}")
        driver = make_driver(config.algo, seed=config.seed, fn=config.fn,
                             ops_budget=config.ops_budget,
                             scale=config.scale)
        with GatewayClient(world.http_contact, timeout=3.0) as client:
            queue = ExploreQueue(client, batch=config.batch, pump=world.pump)
            # The nodes were spawned an instant ago and may still be
            # binding: wait for the gateway before the first push.
            world.wait_healthy(client)
            world.say(f"running {config.algo!r} over fn={config.fn!r} "
                      f"(batch={config.batch})")
            summary = run_driver(driver, queue, timeout=config.duration,
                                 poll_timeout=5.0)
        world.say(f"ME finished: {summary['evals']} evaluations consumed in "
                  f"{summary['elapsed']:.1f}s, best={summary.get('best')}")

        # Verify sweep against the live gateway: every pushed id must be
        # done, exactly once (requeues allowed, extra completions not).
        sweep = world.sweep_jobs(queue.pushed_ids)
        nodes = world.drain()
        report = {
            "config": {
                "algo": config.algo, "fn": config.fn,
                "clients": config.clients, "duration": config.duration,
                "scale": config.scale, "ops_budget": config.ops_budget,
                "kill_at": config.kill_at, "kill_node": world.kill_node,
                "batch": config.batch, "seed": config.seed,
            },
            "topology": topology.to_dict(),
            "summary": summary,
            "queue": queue.stats(),
            "jobs": {
                "pushed": queue.pushed,
                "done": sweep["states"].get("done", 0),
                "states": sweep["states"],
                "not_done": sorted(sweep["not_done"]),
                "still_outstanding": sorted(queue.outstanding),
                "requeues_total": sweep["requeues"],
            },
            "work_stats": sweep["work"],
            "nodes": nodes,
            "chaos": world.chaos,
            "metrics": world.collector.merged_metrics(),
        }
        report["violations"] = _check_explore(report)
        report["ok"] = not report["violations"]
        if out is not None:
            report["artifacts"] = {
                "manifest": world.manifest_path,
                "report": world.write_json("explore_report.json", report)}
        return report

"""One ``Scenario``, two worlds: the control plane's only harness.

A :class:`Scenario` says a run once: the clients, one workload actor
(synthetic HTTP ``users``, an ME driver named by ``algo``, or a batch of
``specs``), one fault (the first ``victim`` node killed at ``fault_at``
seconds), the seed and the duration. :func:`run_scenario` runs it on the
deterministic :class:`~repro.control.sim.TwinWorld` or, ``live``, as
real processes in a :class:`~repro.live.harness.LiveWorld`. Both
worlds speak HTTP to the gateway, over simulated segments or real
sockets, and name the victim their own way (``gw0``; ``wrk0`` on the
twin, ``cli0`` live), and both return one report shape, judged by one
checklist, :func:`check_scenario`.
"""

from __future__ import annotations

import json
import os
import random
from contextlib import closing
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

__all__ = ["Scenario", "check_scenario", "run_scenario"]

#: Share of a user's turns that submit (the rest query or cancel).
SUBMIT_FRACTION = 0.6
#: Ops per job when a scenario sets no ``ops_budget``.
USER_OPS_BUDGET, EVAL_OPS_BUDGET = 250_000.0, 20_000.0
#: Ops/s of a twin client running ME evaluations (other twin clients run
#: at ``TwinWorld.spawn_client``'s default, live ones at the topology's).
TWIN_EVAL_SPEED = 40_000.0
#: Live users publish per-site utilisation to the gateway this often.
SITES_PERIOD = 0.5
#: Simulated seconds between a twin user's answer and its next request,
#: and the twin ME pump's ``poll`` (a twin evaluation takes about one).
USER_PERIOD, PUMP_POLL = 1.0, 1.0


@dataclass
class Scenario:
    """One control-plane run for either world (module doc); exactly one
    of ``users``, ``algo`` and ``specs`` is given."""

    clients: int = 2
    #: Users submitting Ramsey jobs (K_k, no monochromatic K_n) ...
    users: int = 0
    cancel_fraction: float = 0.1
    k: int = 8
    n: int = 4
    #: ... or an ME algorithm, "sweep" or "hill" ...
    algo: Optional[str] = None
    fn: str = "forecast"
    scale: float = 1.0
    #: ... or one batch of job specs of any kind.
    specs: list = field(default_factory=list)
    ops_budget: Optional[float] = None
    #: Kill the first "gateway" or "client" at ``fault_at`` seconds.
    victim: str = "gateway"
    fault_at: Optional[float] = None
    #: The first client forges its first N evaluation results (twin only).
    corrupt: int = 0
    seed: int = 0
    #: Simulated seconds on the twin, wall seconds live; explore and batch
    #: runs end live once everything pushed is retired.
    duration: float = 60.0

    @property
    def workload(self) -> str:
        given = [name for name, actor in (
            ("users", self.users > 0), ("explore", self.algo is not None),
            ("batch", bool(self.specs))) if actor]
        if len(given) != 1:
            raise ValueError("a scenario runs exactly one workload: "
                             f"users, algo or specs (got {given or 'none'})")
        return given[0]

    def user_spec(self, rng: random.Random) -> dict:
        from ..ramsey.tasks import ramsey_job_spec

        return ramsey_job_spec(rng, self.k, self.n,
                               self.ops_budget or USER_OPS_BUDGET)

    def driver(self):
        from ..explore.drivers import make_driver

        return make_driver(self.algo, seed=self.seed, fn=self.fn,
                           ops_budget=self.ops_budget or EVAL_OPS_BUDGET,
                           scale=self.scale)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**doc, "specs": len(self.specs), "workload": self.workload}


def check_scenario(report: dict) -> list[str]:
    """The one checklist, for either world's report: no accepted job
    lost, work accepted and the workload finished, every job an explore
    or batch run pushed completed exactly once, exactly the forged
    results rejected, every killed node the world restarts back, and
    every process heard from."""
    config, jobs = report["config"], report["jobs"]
    work = report["gateway"].get("work") or {}
    violations = []
    if jobs["lost"]:
        violations.append(f"{len(jobs['lost'])} accepted job(s) lost: "
                          f"{jobs['lost'][:5]}")
    if not jobs["accepted"]:
        violations.append("the workload never got a single job accepted")
    if not jobs["finished"]:
        violations.append(f"the {config['workload']} workload did not "
                          f"finish inside {config['duration']}s")
    if config["workload"] != "users":
        not_done = jobs["accepted"] - jobs["states"].get("done", 0)
        if not_done > 0:
            violations.append(f"{not_done} pushed job(s) not done: "
                              f"{jobs['not_done']}")
        if work.get("completed") != jobs["accepted"]:
            violations.append(
                f"exactly-once broken: {work.get('completed')} completions "
                f"for {jobs['accepted']} pushed jobs")
    if work.get("results_rejected", 0) != config["corrupt"]:
        violations.append(f"expected {config['corrupt']} rejected "
                          f"result(s), saw {work.get('results_rejected')}")
    violations += [f"{event['node']} was killed but never restarted"
                   for event in report["chaos"]
                   if event.get("restarted") is False]
    return violations + [
        f"{name}: never shipped a telemetry report" for name, node
        in sorted(report["world"].get("nodes", {}).items())
        if not node.get("reports")]


def run_scenario(
    scenario: Scenario,
    live: bool = False,
    out: Optional[str] = None,
    restart=None,
    progress: Optional[Callable[[str], None]] = None,
    telemetry=None,
) -> dict:
    """Run ``scenario`` on the twin (the same scenario, the same report
    bytes) or ``live``; returns the checked report, also written to
    ``out/report.json`` (a live run adds its manifest, node logs, trace,
    spans and metrics, and narrates to ``progress``). A
    :class:`~repro.live.supervisor.RestartPolicy` ``restart`` only exists
    live, a caller's ``telemetry`` and ``corrupt`` only on the twin:
    asking a world for what it cannot run raises ``ValueError``."""
    workload = scenario.workload
    if scenario.victim not in ("gateway", "client"):
        raise ValueError(f"unknown victim role {scenario.victim!r}")
    if scenario.corrupt and workload == "users":
        raise ValueError("corrupt forges evaluation results, and users "
                         "submit Ramsey jobs: no evaluation results")
    if live and (scenario.corrupt or telemetry is not None):
        raise ValueError("the live world cannot forge results or run on a "
                         "caller's telemetry")
    if not live and restart is not None:
        raise ValueError("the twin has no supervisor restart policy")
    report = (_run_live(scenario, out, restart, progress) if live
              else _run_twin(scenario, telemetry))
    report["violations"] = check_scenario(report)
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "report.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return report


def _report(s: Scenario, world: dict, ids: list[str], records: dict,
            finished: bool, **blocks) -> dict:
    """The one report shape; ``records`` maps each accepted id the
    gateway still knows to its job record."""
    states: dict[str, int] = {}
    for record in records.values():
        states[record["state"]] = states.get(record["state"], 0) + 1
    jobs = {
        "accepted": len(ids),
        "lost": sorted(set(ids) - set(records)),
        "states": states,
        # The first five only: a storm leaves tens of thousands, and
        # their count is accepted - states["done"].
        "not_done": sorted(job_id for job_id in ids
                           if records.get(job_id, {}).get("state")
                           != "done")[:5],
        "requeues": sum(r.get("requeues", 0) for r in records.values()),
        "finished": finished,
    }
    return {"config": s.to_dict(), "world": world, "jobs": jobs, **blocks}


def _run_twin(s: Scenario, telemetry) -> dict:
    from ..core.services.kinds import registry
    from ..explore.evals import EVAL_KIND
    from ..explore.queue import FeedPump
    from ..simgrid.faults import FaultPlan
    from .loadgen import StormStats, UserMix
    from .sim import ForgingEngine, HttpUser, TwinWorld

    world = TwinWorld(s.seed, s.fault_at if s.victim == "gateway" else None,
                      telemetry)
    if s.specs:
        # The batch is queued before any client says hello, as live.
        pump = FeedPump(specs=s.specs, poll=PUMP_POLL)
        world.add("me0", "me", HttpUser("me0", world.CONTACT, pump, 0.0))
        while not (pump.pushed or pump.refused):
            world.env.step()
        if pump.refused:
            raise ValueError(f"batch refused: {pump.refused[0]}")
    forger = None
    if s.algo is not None or s.corrupt:
        # A falsified value with a now-stale digest: what a liar sends.
        forger = ForgingEngine(registry.get(EVAL_KIND).engine_factory(),
                               lambda r: {**r, "value": r["value"] + 1.0},
                               first=s.corrupt)
    speed = {} if s.algo is None else {"speed": TWIN_EVAL_SPEED}
    clients = [world.spawn_client(f"wrk{i}", engines={EVAL_KIND: forger}
                                  if forger is not None and i == 0 else None,
                                  **speed)
               for i in range(s.clients)]
    work = world.gateway.work
    users = []
    for i in range(s.users):
        mix = UserMix(random.Random(f"{s.seed}:{i}"), StormStats(),
                      SUBMIT_FRACTION, s.cancel_fraction, s.user_spec)
        # Users start staggered inside their first period.
        users.append(HttpUser(
            f"user{i}", world.CONTACT, mix, USER_PERIOD,
            start=USER_PERIOD * (0.1 + 0.8 * mix.rng.random())))
        world.add(users[-1].name, "usr", users[-1])
    if s.algo is not None:
        pump = FeedPump(s.driver(), poll=PUMP_POLL)
        world.add("me0", "me", HttpUser("me0", world.CONTACT, pump, 0.0))
    if s.victim == "client" and s.fault_at is not None:
        world.install(FaultPlan().crash(s.fault_at, clients[0].name))

    if s.specs:
        # A batch ends once every job retired (or at the duration).
        while world.env.now < s.duration and pump.finished_at is None:
            world.env.run(until=min(world.env.now + 1.0, s.duration))
    else:
        world.env.run(until=s.duration)
    if s.users:
        mixes = [user.conversation for user in users]
        ids = [job_id for mix in mixes for job_id in mix.ids]
        blocks = {"users": {user.name: {
            **mix.tally.to_dict(), "requests": user.requests,
            "accepted": mix.ids} for user, mix in zip(users, mixes)}}
        finished = True
    else:
        ids = pump.pushed_ids
        blocks = ({"results": [work.get(job_id).result for job_id in ids]}
                  if s.specs else
                  {"me": pump.stats(), "driver": pump.driver.summary()})
        finished = pump.finished_at is not None and not pump.outstanding

    chaos = []
    if s.fault_at is not None and s.fault_at <= world.env.now:
        chaos = ([{"t": s.fault_at, "node": "gw0",
                   "restarted": world.gateway.restarts > 0}]
                 if s.victim == "gateway"
                 # A crashed twin host stays down: the reaper's turn.
                 else [{"t": s.fault_at, "node": clients[0].name}])
    return _report(
        s, {"name": "twin", "seconds": round(world.env.now, 6)}, ids,
        {job_id: job.to_dict() for job_id in ids
         if (job := work.get(job_id)) is not None}, finished,
        gateway=world.gateway_report(),
        workers={client.name: client.units_done if forger is None else {
            "units_done": client.units_done,
            "results_corrupted": forger.forged if i == 0 else 0}
            for i, client in enumerate(clients)},
        chaos=chaos, metrics=world.telemetry.snapshot(), **blocks)


def _storm(s: Scenario, world, client) -> tuple[list[str], dict]:
    """The live users: a :class:`GatewayStorm` for the duration, with
    the collector's per-site utilisation published to the gateway."""
    from .http import HttpError
    from .loadgen import GatewayStorm

    host, _, port = world.http_contact.rpartition(":")
    storm = GatewayStorm(host, int(port), clients=s.users, seed=s.seed,
                         submit_fraction=SUBMIT_FRACTION,
                         cancel_fraction=s.cancel_fraction,
                         spec_factory=s.user_spec)
    sites_at = SITES_PERIOD
    with closing(storm):
        while (now := world.supervisor.now()) < s.duration:
            world.pump()
            storm.step(0.005)
            if now >= sites_at:
                sites_at = now + SITES_PERIOD
                try:
                    client.publish_sites(world.collector.site_utilisation(
                        world.topology, now))
                except HttpError:
                    pass  # a dead or restarting gateway misses a beat
        storm.quiesce(grace=3.0)
    return storm.accepted, {"users": storm.stats.to_dict()}


def _run_live(s: Scenario, out, restart, progress) -> dict:
    from ..explore.drivers import run_driver
    from ..explore.queue import ExploreQueue
    from ..live.harness import LiveWorld
    from ..live.topology import serve_topology
    from .client import GatewayClient

    topology = serve_topology(clients=s.clients, seed=s.seed, k=s.k, n=s.n)
    with LiveWorld(topology, s.duration, grace=30.0, victim_role=s.victim,
                   out=out, restart=restart, progress=progress) as world:
        world.say(f"world of {len(topology.nodes)} nodes; "
                  f"gateway HTTP at {world.http_contact}")
        with GatewayClient(world.http_contact, timeout=3.0) as client:
            # The nodes may still be binding: wait before the first push.
            world.wait_healthy(client)
            # The fault counts from the workload's start, as on the twin
            # (whose workload starts at t=0), not from process spawn.
            if s.fault_at is not None:
                world.kill_at = world.supervisor.now() + s.fault_at
            queue = ExploreQueue(client, pump=world.pump)
            if s.users:
                (ids, blocks), finished = _storm(s, world, client), True
            elif s.algo is not None:
                summary = run_driver(s.driver(), queue, timeout=s.duration,
                                     poll_timeout=5.0)
                ids, finished = queue.pushed_ids, not summary["timed_out"]
                blocks = {"me": queue.stats(), "driver": summary}
            else:
                queue.push_tasks(s.specs)
                by_id = {record["id"]: record["result"] for record in
                         queue.pop_results(min_results=len(s.specs),
                                           timeout=s.duration)}
                ids, finished = queue.pushed_ids, True
                blocks = {"results": [by_id.get(job_id) for job_id in ids]}
        finished = finished and not queue.outstanding
        seconds = round(world.supervisor.now(), 3)
        world.say(f"{s.workload} workload done at t={seconds:.1f}s: "
                  f"{len(ids)} job(s) accepted")
        # The sweep runs while the world is still up: every accepted id
        # must still be known to the (possibly restarted) gateway.
        sweep = world.sweep_jobs(ids)
        nodes = world.drain()
        gateway = nodes.get("gw0", {})
        report = _report(
            s, {"name": "live", "seconds": seconds,
                "topology": topology.to_dict(), "nodes": nodes},
            ids, sweep["records"], finished,
            gateway={"restarts": gateway.get("restarts", 0),
                     "scheduler": gateway.get("stats", {}),
                     "work": sweep["work"]},
            workers={spec.name: nodes[spec.name]["stats"].get("units_done", 0)
                     for spec in topology.by_role("client")},
            chaos=[{**event, "restarted": nodes.get(
                event["node"], {}).get("restarts", 0) >= 1}
                for event in world.chaos],
            metrics=world.collector.merged_metrics(), **blocks)
        if out is not None:
            report["world"]["artifacts"] = world.write_artifacts(
                report["metrics"])
        return report

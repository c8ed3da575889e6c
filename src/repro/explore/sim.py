"""The model-exploration subsystem's simulated-time twin.

Same shape as :func:`repro.control.sim.run_sim_serve`, different
workload: instead of synthetic users submitting noop jobs, an
:class:`MEDriverComponent` runs a real ME algorithm (sweep or hill
climber — the identical :mod:`repro.explore.drivers` objects the live
pump uses) against the *unchanged* :class:`GatewayComponent`, pushing
generations through ``POST /jobs/batch`` frames and retiring them from
the self-contained terminal events of the ``/events`` feed — the sans-IO
mirror of :class:`~repro.explore.queue.ExploreQueue` + ``run_driver``.

:class:`ExploreWorker` plays the computational client: it *really
executes* each evaluation (``delay = ops_budget / speed`` simulated
seconds, then :func:`~repro.explore.evals.execute_unit`), so results —
and therefore the driver's decisions — are the true objective values. A
``corrupt_first`` knob makes the first worker falsify its first N
results, exercising the §3.1 rejection path end-to-end: the WorkQueue
distrusts the result, requeues the unit, and an honest re-execution
completes it — deterministically, restart included.

Everything runs on seeded RNG streams and the virtual clock, so
:func:`run_sim_explore` reports are byte-identical for the same seed.
"""

from __future__ import annotations

import json
from typing import Optional

from ..core.component import Component, Effect, Send, SetTimer
from ..core.linguafranca.messages import Message
from ..core.services.kinds import kind_of
from ..core.telemetry import Telemetry
from ..control.sim import GW_REQ, GW_RES, SimJobWorker, TwinWorld
from .drivers import make_driver
from .evals import EVAL_KIND, execute_unit
from .queue import FeedConsumer
from . import engine as _engine  # noqa: F401  (registers the kind)

__all__ = ["ExploreWorker", "MEDriverComponent", "run_sim_explore"]

T_POLL = "me:poll"


class ExploreWorker(SimJobWorker):
    """A twin computational client that genuinely executes evaluations.

    ``speed`` is its delivered ops/s: an evaluation occupies the worker
    for ``ops_budget / speed`` simulated seconds before the (real,
    deterministic) result is reported. ``corrupt_first`` falsifies the
    first N results — the dishonest-host injector for the §3.1 path.
    """

    def __init__(self, name: str, gateway: str, speed: float = 40_000.0,
                 corrupt_first: int = 0, hello_retry: float = 1.0) -> None:
        super().__init__(name, gateway, hello_retry=hello_retry)
        self.speed = self.rate = float(speed)
        self.corrupt_first = int(corrupt_first)
        self.results_corrupted = 0

    def _delay(self, unit: dict) -> float:
        if kind_of(unit) != EVAL_KIND:
            return super()._delay(unit)
        return float(unit.get("ops_budget", 0.0)) / max(self.speed, 1.0)

    def _result(self, unit: dict) -> dict:
        if kind_of(unit) != EVAL_KIND:
            return super()._result(unit)
        result = execute_unit(unit)
        if self.results_corrupted < self.corrupt_first:
            self.results_corrupted += 1
            # A falsified value with a now-stale digest: exactly what
            # an unreliable (or hostile) host would report.
            result = {**result, "value": result["value"] + 1.0}
        return result

    def stats(self) -> dict:
        return {"units_done": self.units_done,
                "results_corrupted": self.results_corrupted}


class MEDriverComponent(Component, FeedConsumer):
    """The ME algorithm as a sim component (the EMEWS pump, event-driven).

    push initial batch → poll /events → feed the driver each terminal
    event's result → push follow-up generations, all over GW_REQ/GW_RES
    frames against the unchanged gateway router. The feed bookkeeping is
    the :class:`~repro.explore.queue.FeedConsumer` the live
    :class:`~repro.explore.queue.ExploreQueue` runs; what is this
    component's own is the framing, the poll timer and asking the driver
    for follow-ups after every result.
    """

    def __init__(self, name: str, gateway: str, driver,
                 poll_period: float = 0.25) -> None:
        Component.__init__(self, name)
        FeedConsumer.__init__(self)
        self.gateway = gateway
        self.driver = driver
        self.poll_period = poll_period
        self._rid = 0
        #: rid -> the specs of a batch push | None for an /events read.
        self._inflight: dict[int, Optional[list]] = {}
        self._events_pending = False
        #: Sim-times at which follow-up generations went out (ME round
        #: trips) and at which the driver finished.
        self.rounds: list[float] = []
        self.finished_at: Optional[float] = None
        self.batch_rejected = 0

    # -- request plumbing -----------------------------------------------------
    def _request(self, method: str, path: str,
                 specs: Optional[list] = None) -> Send:
        self._rid += 1
        self._inflight[self._rid] = specs
        body = None if specs is None else {"specs": specs}
        return Send(self.gateway, Message(
            mtype=GW_REQ, sender=self.contact,
            body={"method": method, "path": path, "body": body,
                  "rid": self._rid}))

    def _push(self, specs: list[dict]) -> list[Effect]:
        if not specs:
            return []
        return [self._request("POST", "/jobs/batch", specs)]

    # -- lifecycle ------------------------------------------------------------
    def on_start(self, now: float) -> list[Effect]:
        return self._push(self.driver.initial_tasks()) + [
            SetTimer(T_POLL, self.poll_period)]

    def on_timer(self, key: str, now: float) -> list[Effect]:
        if key != T_POLL:
            return []
        if self.driver.finished():
            if self.finished_at is None:
                self.finished_at = round(now, 6)
            return []  # stop polling; the world can wind down
        effects: list[Effect] = [SetTimer(T_POLL, self.poll_period)]
        if not self._events_pending:
            self._events_pending = True
            effects.append(self._request(
                "GET", f"/events?since={self.since}&limit=500"))
        return effects

    # -- responses ------------------------------------------------------------
    def on_message(self, message: Message, now: float) -> list[Effect]:
        if message.mtype != GW_RES:
            return []
        rid = message.body.get("rid")
        if rid not in self._inflight:
            return []
        specs = self._inflight.pop(rid)
        status = int(message.body.get("status", 0))
        doc = message.body.get("body")
        if specs is not None:
            if status != 201 or not isinstance(doc, dict):
                self.batch_rejected += 1
            else:
                self.record_push(
                    [str(job_id) for job_id in doc.get("ids", [])],
                    specs, now)
            return []
        self._events_pending = False
        if status != 200 or not isinstance(doc, str):
            return []
        effects: list[Effect] = []
        events = [json.loads(line) for line in doc.splitlines()]
        for record in self.ingest(events, now):
            self.driver.observe(record["spec"], record["result"])
            follow_up = self.driver.next_tasks()
            if follow_up:
                self.rounds.append(round(now, 6))
                effects += self._push(follow_up)
        return effects

    def stats(self) -> dict:
        return {
            "pushed": self.pushed,
            "popped": self.popped,
            "outstanding": len(self.outstanding),
            "batch_rejected": self.batch_rejected,
            "rounds": self.rounds,
            "finished_at": self.finished_at,
            "pop_p50": self.latency_quantile(0.5),
            "pop_max": self.latency_quantile(1.0),
        }


def run_sim_explore(
    seed: int = 0,
    algo: str = "sweep",
    fn: str = "forecast",
    workers: int = 3,
    duration: float = 120.0,
    scale: float = 1.0,
    ops_budget: float = 20_000.0,
    worker_speed: float = 40_000.0,
    restart_after: Optional[float] = None,
    corrupt_first: int = 0,
    telemetry: Optional[Telemetry] = None,
) -> dict:
    """Run the ME twin; returns a JSON-safe, deterministic report (same
    seed ⇒ byte-identical ``json.dumps(..., sort_keys=True)``).

    The report carries the twin's own exactly-once checklist: the driver
    must finish inside ``duration``, every pushed evaluation must end
    ``done`` with the completion counter agreeing (nothing lost, nothing
    doubly accepted), every corrupted result must have been rejected and
    re-executed, and the simulated restart — when scheduled — must have
    requeued-not-dropped the in-flight generation.
    """
    world = TwinWorld(seed, restart_after, telemetry)
    worker_components = [
        ExploreWorker(f"wrk{i}", world.CONTACT, speed=worker_speed,
                      corrupt_first=corrupt_first if i == 0 else 0)
        for i in range(workers)]
    for wrk in worker_components:
        world.spawn(wrk.name, "wrk", wrk)
    driver = make_driver(algo, seed=seed, fn=fn, ops_budget=ops_budget,
                         scale=scale)
    me = MEDriverComponent("me0", world.CONTACT, driver)
    world.spawn("me0", "me", me)

    world.env.run(until=duration)

    work = world.gateway.work
    states = {job_id: work.jobs[job_id].state if job_id in work.jobs else None
              for job_id in me.pushed_ids}
    not_done = sorted(job_id for job_id, state in states.items()
                      if state != "done")
    stats = work.stats()
    violations: list[str] = []
    if me.finished_at is None:
        violations.append(
            f"driver did not finish inside {duration} simulated seconds "
            f"(popped {me.popped}/{me.pushed})")
    if me.outstanding:
        violations.append(
            f"{len(me.outstanding)} evaluation(s) still outstanding")
    if not_done:
        violations.append(
            f"{len(not_done)} pushed evaluation(s) not done: {not_done[:5]}")
    if stats["completed"] != me.pushed:
        violations.append(
            f"exactly-once broken: {stats['completed']} completions for "
            f"{me.pushed} pushed evaluations")
    if stats["results_rejected"] != corrupt_first:
        violations.append(
            f"expected {corrupt_first} rejected result(s), "
            f"saw {stats['results_rejected']}")
    violations += world.restart_violations()
    return {
        "config": {
            "seed": seed, "algo": algo, "fn": fn, "workers": workers,
            "duration": duration, "scale": scale, "ops_budget": ops_budget,
            "worker_speed": worker_speed, "restart_after": restart_after,
            "corrupt_first": corrupt_first,
        },
        "driver": driver.summary(),
        "me": me.stats(),
        "gateway": world.gateway_report(),
        "workers": {wrk.name: wrk.stats() for wrk in worker_components},
        "violations": violations,
        "metrics": world.telemetry.snapshot(),
    }

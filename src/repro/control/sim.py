"""The gateway's simulated-time twin: same router, deterministic world.

The live gateway is an :class:`~repro.control.http.HttpServer` feeding a
:class:`~repro.control.gateway.GatewayCore` on a real reactor. Its twin
here is :class:`GatewayComponent` — a sans-IO component speaking the
same routing table over lingua-franca messages (``GW_REQ`` carries
``{method, path, body}``, ``GW_RES`` carries ``{status, body}``) under
simulated time, with :class:`SimJobUser` components playing external
HTTP users and :class:`SimJobWorker` components playing computational
clients pulling jobs over the usual SCH_* protocol.

Everything is driven by the simulation's seeded RNG streams and virtual
clock, so :func:`run_sim_serve` is *deterministic*: the same seed yields
a byte-identical report, run after run — which is what lets CI diff two
runs to prove the control plane's logic (submission, assignment,
cancel races, restart recovery) contains no hidden nondeterminism.

A simulated gateway "restart" (``restart_after``) is the deterministic
analogue of the live SIGKILL + supervisor respawn: scheduler state and
in-flight assignments are discarded, and the job store is rebuilt from
the :class:`~repro.control.workqueue.MemoryJournal` — accepted jobs must
all survive, requeued-not-dropped, exactly like the live journal replay.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict
from typing import Optional

from ..core.component import Component, Effect, LogLine, Send, SetTimer
from ..core.forecasting.benchmarking import ForecastRegistry
from ..core.linguafranca.messages import Message
from ..core.services.scheduler import (
    SCH_ACK,
    SCH_DIRECTIVE,
    SCH_HELLO,
    SCH_REPORT,
    SCH_WORK,
    SchedulerServer,
)
from ..core.simdriver import SimDriver
from ..core.telemetry import Telemetry
from ..simgrid.engine import Environment
from ..simgrid.host import Host, HostSpec
from ..simgrid.load import ConstantLoad
from ..simgrid.network import Network
from ..simgrid.rand import RngStreams
from .gateway import GatewayCore
from .loadgen import UserMix
from .workqueue import MemoryJournal, WorkQueue

__all__ = [
    "GW_REQ",
    "GW_RES",
    "GatewayComponent",
    "SimJobUser",
    "SimJobWorker",
    "run_sim_serve",
]

GW_REQ = "GW_REQ"
GW_RES = "GW_RES"

T_RESTART = "gw:restart"
T_NEXT = "usr:next"
T_HELLO = "wrk:hello"
T_DONE = "wrk:done"


class GatewayComponent(SchedulerServer):
    """The control-plane gateway as a sans-IO component.

    Downward it *is* a :class:`SchedulerServer` (workers pull jobs over
    SCH_*); upward it answers ``GW_REQ`` messages through the identical
    :class:`GatewayCore` router the live HTTP wrapper uses. The work
    source is a journal-backed :class:`WorkQueue`; ``restart_after``
    schedules one simulated crash+restart (state rebuilt from the
    journal) at that many simulated seconds after start.
    """

    def __init__(
        self,
        name: str,
        journal=None,
        restart_after: Optional[float] = None,
        report_period: float = 0.5,
        reap_period: float = 0.5,
        dead_factor: float = 4.0,
    ) -> None:
        work = WorkQueue(
            journal=journal if journal is not None else MemoryJournal(),
            prefix=f"{name}-job")
        super().__init__(name, work,
                         report_period=report_period,
                         reap_period=reap_period,
                         dead_factor=dead_factor)
        self.restart_after = restart_after
        self.restarts = 0
        self.requeued_on_restart = 0
        self._now = 0.0
        work.clock = lambda: self._now
        self.core = GatewayCore(name, work, telemetry=self.telemetry)

    def bind_telemetry(self, telemetry: Telemetry) -> None:
        super().bind_telemetry(telemetry)
        self.core.telemetry = telemetry

    # -- lifecycle ------------------------------------------------------------
    def on_start(self, now: float) -> list[Effect]:
        self._now = now
        self.core.started_at = now
        effects = super().on_start(now)
        if self.restart_after is not None:
            effects.append(SetTimer(T_RESTART, self.restart_after))
        return effects

    def on_timer(self, key: str, now: float) -> list[Effect]:
        self._now = now
        if key == T_RESTART:
            return self._restart(now)
        return super().on_timer(key, now)

    def _restart(self, now: float) -> list[Effect]:
        """Simulated process death + respawn: everything a SIGKILL takes
        (client table, forecasts, in-flight assignments) dies; the job
        store comes back from the journal, unfinished jobs requeued."""
        self.restarts += 1
        self.clients.clear()
        self.forecasts = ForecastRegistry()
        self.requeued_on_restart = self.work.replay()
        return [LogLine(
            f"simulated restart #{self.restarts}: "
            f"{self.requeued_on_restart} job(s) requeued from the journal")]

    # -- messages -------------------------------------------------------------
    def on_message(self, message: Message, now: float) -> list[Effect]:
        self._now = now
        if message.mtype == GW_REQ:
            body = message.body
            raw = body.get("body")
            if isinstance(raw, dict):
                data = json.dumps(raw, sort_keys=True).encode("utf-8")
            elif isinstance(raw, str):
                data = raw.encode("utf-8")
            else:
                data = b""
            status, doc, _route = self.core.handle(
                str(body.get("method", "GET")), str(body.get("path", "/")),
                data, now)
            return [Send(message.sender, message.reply(
                GW_RES, sender=self.contact,
                body={"status": status, "body": doc,
                      "rid": body.get("rid")}))]
        return super().on_message(message, now)


def _noop_spec(rng: random.Random) -> dict:
    return {"kind": "noop",
            "delay": round(rng.uniform(0.05, 0.5), 3),
            "payload": rng.randrange(1 << 16)}


class SimJobUser(Component):
    """One synthetic external user under simulated time.

    The deterministic analogue of one :class:`GatewayStorm` client: a
    seeded submit/query/cancel loop, one request in flight, latencies
    measured on the simulated clock.
    """

    def __init__(
        self,
        name: str,
        gateway: str,
        idx: int = 0,
        seed: int = 0,
        period: float = 1.0,
        submit_fraction: float = 0.6,
        cancel_fraction: float = 0.1,
    ) -> None:
        super().__init__(name)
        self.gateway = gateway
        self.period = period
        self.submitted = 0
        self.queried = 0
        self.cancelled = 0
        self.rejected = 0
        self.done_seen = 0
        #: The request mix itself — the core GatewayStorm's clients run —
        #: counting its outcomes on this component.
        self.mix = UserMix(random.Random(f"{seed}:{idx}"), self,
                           submit_fraction, cancel_fraction, _noop_spec)
        self.accepted = self.mix.ids
        self.latencies_ms: list[float] = []
        self._rid = 0
        #: (kind, rid, t0) of the request awaiting its GW_RES.
        self._inflight: Optional[tuple[str, int, float]] = None

    def on_start(self, now: float) -> list[Effect]:
        # Stagger users deterministically inside the first period.
        return [SetTimer(
            T_NEXT, self.period * (0.1 + 0.8 * self.mix.rng.random()))]

    def on_timer(self, key: str, now: float) -> list[Effect]:
        if key != T_NEXT or self._inflight is not None:
            return []
        self._rid += 1
        kind, method, path, body = self.mix.next_request()
        self._inflight = (kind, self._rid, now)
        return [Send(self.gateway, Message(
            mtype=GW_REQ, sender=self.contact,
            body={"method": method, "path": path, "body": body,
                  "rid": self._rid}))]

    def on_message(self, message: Message, now: float) -> list[Effect]:
        if message.mtype != GW_RES or self._inflight is None:
            return []
        kind, rid, t0 = self._inflight
        if message.body.get("rid") != rid:
            return []  # stale response from a previous conversation
        self._inflight = None
        self.latencies_ms.append(round((now - t0) * 1000.0, 6))
        doc = message.body.get("body")
        outcome = self.mix.outcome(
            kind, int(message.body.get("status", 0)), doc)
        if (outcome == "queried" and isinstance(doc, dict)
                and doc.get("state") == "done"):
            self.done_seen += 1
        return [SetTimer(T_NEXT, self.period)]

    def stats(self) -> dict:
        return {
            "submitted": self.submitted,
            "queried": self.queried,
            "cancelled": self.cancelled,
            "rejected": self.rejected,
            "done_seen": self.done_seen,
            "accepted": list(self.accepted),
            "requests": self._rid,
        }


class SimJobWorker(Component):
    """A minimal computational client for the twin: pulls jobs over the
    scheduler protocol and "executes" each as a timed delay (the spec's
    ``delay`` field), then reports done; a subclass that really computes
    overrides :meth:`_delay` and :meth:`_result`. Application-agnostic on
    purpose — the twin exercises the control plane, not the Ramsey
    search (the live plane runs real :class:`RamseyClient`\\ s)."""

    def __init__(self, name: str, gateway: str,
                 hello_retry: float = 1.0) -> None:
        super().__init__(name)
        self.gateway = gateway
        self.hello_retry = hello_retry
        #: Delivered ops/s this worker reports with each finished unit.
        self.rate = 1.0
        self.unit: Optional[dict] = None
        self.units_done = 0

    def on_start(self, now: float) -> list[Effect]:
        return [self._hello(), SetTimer(T_HELLO, self.hello_retry)]

    def _hello(self) -> Send:
        return Send(self.gateway, Message(
            mtype=SCH_HELLO, sender=self.contact, body={"infra": "sim"}))

    def _ack(self, message: Message) -> list[Effect]:
        if message.req_id is None:
            return []
        return [Send(message.sender, message.reply(
            SCH_ACK, sender=self.contact,
            body={"unit_id": (message.body.get("unit") or {}).get("id")}))]

    def _delay(self, unit: dict) -> float:
        """Simulated seconds ``unit`` occupies this worker."""
        return float(unit.get("delay", 0.1))

    def _result(self, unit: dict) -> dict:
        return {"worker": self.name, "payload": unit.get("payload")}

    def _take(self, unit: Optional[dict], now: float) -> list[Effect]:
        if unit is None:
            # Queue was empty: knock again after a beat.
            return [SetTimer(T_HELLO, self.hello_retry)]
        self.unit = unit
        return [SetTimer(T_DONE, max(self._delay(unit), 0.001))]

    def on_message(self, message: Message, now: float) -> list[Effect]:
        if message.mtype == SCH_WORK:
            ack = self._ack(message)
            if self.unit is not None:
                return ack  # duplicate delivery mid-unit: keep working
            return ack + self._take(message.body.get("unit"), now)
        if message.mtype == SCH_DIRECTIVE:
            ack = self._ack(message)
            if message.body.get("action") in ("new_work", "migrate"):
                if self.unit is None:
                    return ack + self._take(message.body.get("unit"), now)
            return ack
        return []

    def on_timer(self, key: str, now: float) -> list[Effect]:
        if key == T_HELLO:
            if self.unit is None:
                return [self._hello(), SetTimer(T_HELLO, self.hello_retry)]
            return []
        if key == T_DONE and self.unit is not None:
            unit, self.unit = self.unit, None
            self.units_done += 1
            return [Send(self.gateway, Message(
                mtype=SCH_REPORT, sender=self.contact,
                body={"unit_id": unit.get("id"), "done": True,
                      "rate": self.rate, "infra": "sim",
                      "result": self._result(unit)}))]
        return []


class TwinWorld:
    """What every simulated twin stands on: engine, seeded streams,
    telemetry, network and one :class:`GatewayComponent` at
    :attr:`CONTACT`; :meth:`spawn` adds the twin's own actors."""

    CONTACT = "gw0/gw"
    SITES = ("ucsd", "utk", "uva", "ncsa")

    def __init__(self, seed: int, restart_after: Optional[float],
                 telemetry: Optional[Telemetry]) -> None:
        self.env = Environment()
        self.streams = RngStreams(seed=seed)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.network = Network(self.env, self.streams,
                               base_latency=0.01, jitter=0.1)
        self.network.attach_telemetry(self.telemetry)
        self._spawned = 0
        self.gateway = GatewayComponent("gw0", restart_after=restart_after)
        self.spawn("gw0", "gw", self.gateway)

    def spawn(self, name: str, port: str, component: Component) -> None:
        """One host per component, sites dealt round-robin in spawn order."""
        host = Host(self.env, HostSpec(
            name=name, site=self.SITES[self._spawned % len(self.SITES)],
            infra="service", speed=2e7, load_model=ConstantLoad(1.0)),
            self.streams)
        self._spawned += 1
        self.network.add_host(host)
        host.start()
        SimDriver(self.env, self.network, host, port, component,
                  self.streams).start()

    def gateway_report(self) -> dict:
        """The ``"gateway"`` block of a twin's report."""
        gateway = self.gateway
        return {
            "requests": gateway.core.requests,
            "rejected": gateway.core.rejected,
            "restarts": gateway.restarts,
            "requeued_on_restart": gateway.requeued_on_restart,
            "scheduler": asdict(gateway.stats),
            "work": gateway.work.stats(),
        }

    def restart_violations(self) -> list[str]:
        gateway = self.gateway
        if gateway.restart_after is None or gateway.restarts == 1:
            return []
        return [f"expected exactly one simulated restart, "
                f"saw {gateway.restarts}"]


def run_sim_serve(
    seed: int = 0,
    users: int = 4,
    workers: int = 3,
    duration: float = 120.0,
    user_period: float = 1.0,
    submit_fraction: float = 0.6,
    cancel_fraction: float = 0.1,
    restart_after: Optional[float] = None,
    telemetry: Optional[Telemetry] = None,
) -> dict:
    """Run the control-plane twin; returns a JSON-safe, deterministic
    report (same seed ⇒ byte-identical ``json.dumps(..., sort_keys=True)``).

    The report carries the twin's own invariant checks: every accepted
    job id must still be known to the gateway at the end (``jobs_lost``
    empty), across the simulated restart if one was scheduled.
    """
    world = TwinWorld(seed, restart_after, telemetry)
    worker_components = [SimJobWorker(f"wrk{i}", world.CONTACT)
                         for i in range(workers)]
    for wrk in worker_components:
        world.spawn(wrk.name, "wrk", wrk)
    user_components = [
        SimJobUser(f"user{i}", world.CONTACT, idx=i, seed=seed,
                   period=user_period, submit_fraction=submit_fraction,
                   cancel_fraction=cancel_fraction)
        for i in range(users)
    ]
    for user in user_components:
        world.spawn(user.name, "usr", user)

    world.env.run(until=duration)

    accepted = [job_id for user in user_components
                for job_id in user.accepted]
    known = world.gateway.work.jobs
    jobs_lost = sorted(job_id for job_id in accepted
                       if job_id not in known)
    violations: list[str] = []
    if jobs_lost:
        violations.append(
            f"{len(jobs_lost)} accepted job(s) unknown to the gateway "
            f"after the run: {jobs_lost[:5]}")
    violations += world.restart_violations()
    return {
        "config": {
            "seed": seed, "users": users, "workers": workers,
            "duration": duration, "user_period": user_period,
            "submit_fraction": submit_fraction,
            "cancel_fraction": cancel_fraction,
            "restart_after": restart_after,
        },
        "gateway": world.gateway_report(),
        "users": {user.name: user.stats() for user in user_components},
        "workers": {wrk.name: wrk.units_done for wrk in worker_components},
        "accepted_total": len(accepted),
        "jobs_lost": jobs_lost,
        "violations": violations,
        "metrics": world.telemetry.snapshot(),
    }

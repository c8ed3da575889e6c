"""The gateway's simulated-time world: same router, deterministic run.

The live gateway is an :class:`~repro.control.http.HttpServer` feeding a
:class:`~repro.control.gateway.GatewayCore` on a real reactor. Its twin
here is :class:`GatewayComponent`, the same routing table over
lingua-franca messages (``GW_REQ`` carries ``{method, path, body}``,
``GW_RES`` ``{status, body}``) under simulated time; :class:`SimJobUser`
plays an external HTTP user and the real
:class:`~repro.ramsey.client.RamseyClient` pulls jobs of any kind over
SCH_*. :class:`TwinWorld` is where a
:class:`~repro.control.scenario.Scenario` runs when it is not run as
real processes: seeded streams and the virtual clock make its report a
pure function of the scenario, which is what lets a pinned digest prove
the control plane's logic hides no nondeterminism.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict
from typing import Callable, Optional

from ..core.component import Component, Effect, LogLine, Send, SetTimer
from ..core.forecasting.benchmarking import ForecastRegistry
from ..core.linguafranca.messages import Message
from ..core.services.kinds import KindEngine
from ..core.services.scheduler import SchedulerServer
from ..core.simdriver import SimWorld
from ..core.telemetry import Telemetry
from ..ramsey.client import ModelEngine, RamseyClient
from ..ramsey.tasks import ramsey_job_spec
from ..simgrid.host import Host
from ..simgrid.load import ConstantLoad
from .gateway import GatewayCore
from .loadgen import UserMix
from .workqueue import MemoryJournal, WorkQueue

__all__ = [
    "GW_REQ",
    "GW_RES",
    "ForgingEngine",
    "GatewayComponent",
    "SimJobUser",
    "TwinWorld",
]

GW_REQ = "GW_REQ"
GW_RES = "GW_RES"

T_RESTART = "gw:restart"
T_NEXT = "usr:next"


class GatewayComponent(SchedulerServer):
    """The control-plane gateway as a sans-IO component.

    Downward it *is* a :class:`SchedulerServer` (workers pull jobs over
    SCH_*); upward it answers ``GW_REQ`` messages through the identical
    :class:`GatewayCore` router the live HTTP wrapper uses. The work
    source is a journal-backed :class:`WorkQueue`; ``restart_after``
    schedules the deterministic analogue of a SIGKILL + supervisor
    respawn at that many simulated seconds: scheduler state and in-flight
    assignments die, and the store is rebuilt from the journal, accepted
    jobs requeued-not-dropped exactly like the live journal replay.
    """

    def __init__(self, name: str,
                 restart_after: Optional[float] = None) -> None:
        work = WorkQueue(journal=MemoryJournal(), prefix=f"{name}-job")
        super().__init__(name, work, report_period=0.5, reap_period=0.5)
        self.restart_after = restart_after
        self.restarts = 0
        self.requeued_on_restart = 0
        self._now = 0.0
        work.clock = lambda: self._now
        self.core = GatewayCore(name, work, telemetry=self.telemetry)

    def bind_telemetry(self, telemetry: Telemetry) -> None:
        super().bind_telemetry(telemetry)
        self.core.telemetry = self.work.telemetry = telemetry

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
            data = (b"" if raw is None
                    else json.dumps(raw, sort_keys=True).encode("utf-8"))
            status, doc, _route = self.core.handle(
                str(body.get("method", "GET")), str(body.get("path", "/")),
                data, now)
            if isinstance(doc, bytes):  # a finished job's journaled body
                doc = json.loads(doc)
            return [Send(message.sender, message.reply(
                GW_RES, sender=self.contact,
                body={"status": status, "body": doc,
                      "rid": body.get("rid")}))]
        return super().on_message(message, now)


class SimJobUser(Component):
    """One synthetic external user under simulated time.

    The deterministic analogue of one :class:`GatewayStorm` client: a
    seeded submit/query/cancel loop, one request in flight, the next one
    :attr:`PERIOD` simulated seconds after each answer.
    """

    PERIOD = 1.0

    def __init__(
        self,
        name: str,
        gateway: str,
        idx: int = 0,
        seed: int = 0,
        submit_fraction: float = 0.6,
        cancel_fraction: float = 0.1,
        spec_factory: Callable[[random.Random], dict] = ramsey_job_spec,
    ) -> None:
        super().__init__(name)
        self.gateway = gateway
        self.submitted = 0
        self.queried = 0
        self.cancelled = 0
        self.rejected = 0
        self.done_seen = 0
        #: The request mix itself — the core GatewayStorm's clients run —
        #: counting its outcomes on this component.
        self.mix = UserMix(random.Random(f"{seed}:{idx}"), self,
                           submit_fraction, cancel_fraction, spec_factory)
        self.accepted = self.mix.ids
        self._rid = 0
        #: (kind, rid) of the request awaiting its GW_RES.
        self._inflight: Optional[tuple[str, int]] = None

    def on_start(self, now: float) -> list[Effect]:
        # Stagger users deterministically inside the first period.
        return [SetTimer(
            T_NEXT, self.PERIOD * (0.1 + 0.8 * self.mix.rng.random()))]

    def on_timer(self, key: str, now: float) -> list[Effect]:
        if key != T_NEXT or self._inflight is not None:
            return []
        self._rid += 1
        kind, method, path, body = self.mix.next_request()
        self._inflight = (kind, self._rid)
        return [Send(self.gateway, Message(
            mtype=GW_REQ, sender=self.contact,
            body={"method": method, "path": path, "body": body,
                  "rid": self._rid}))]

    def on_message(self, message: Message, now: float) -> list[Effect]:
        if message.mtype != GW_RES or self._inflight is None:
            return []
        kind, rid = self._inflight
        if message.body.get("rid") != rid:
            return []  # stale response from a previous conversation
        self._inflight = None
        doc = message.body.get("body")
        outcome = self.mix.outcome(
            kind, int(message.body.get("status", 0)), doc)
        if (outcome == "queried" and isinstance(doc, dict)
                and doc.get("state") == "done"):
            self.done_seen += 1
        return [SetTimer(T_NEXT, self.PERIOD)]

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


class ForgingEngine:
    """A dishonest host (§3.1's threat) for a client's ``engines`` map:
    ``engine``'s first ``first`` results pass through ``forge``."""

    def __init__(self, engine, forge: Callable[[dict], dict],
                 first: int = 1) -> None:
        self.engine = engine
        self.forge = forge
        self.first = first
        self.forged = 0

    def __getattr__(self, name: str):
        return getattr(self.engine, name)

    def result(self) -> Optional[dict]:
        result = self.engine.result()
        if result is not None and self.forged < self.first:
            self.forged += 1
            result = self.forge(result)
        return result


class TwinWorld(SimWorld):
    """A :class:`~repro.core.simdriver.SimWorld` with telemetry and one
    :class:`GatewayComponent` at :attr:`CONTACT`; :meth:`add` adds a
    scenario's actors and :meth:`spawn_client` its clients."""

    CONTACT = "gw0/gw"
    SITES = ("ucsd", "utk", "uva", "ncsa")

    def __init__(self, seed: int, restart_after: Optional[float],
                 telemetry: Optional[Telemetry]) -> None:
        super().__init__(
            seed, telemetry if telemetry is not None else Telemetry(),
            base_latency=0.01, jitter=0.1)
        self._added = 0
        self.gateway = GatewayComponent("gw0", restart_after=restart_after)
        self.add("gw0", "gw", self.gateway)

    def add(self, name: str, port: str, component: Component,
            speed: float = 2e7) -> Host:
        """One host per component, sites dealt round-robin in add order."""
        host = self.host(
            name, site=self.SITES[self._added % len(self.SITES)],
            infra="service", speed=speed, load_model=ConstantLoad(1.0))
        self._added += 1
        host.start()
        self.spawn(host, port, component)
        return host

    def spawn_client(self, name: str, speed: float = 2e6,
                     engines: Optional[dict] = None) -> RamseyClient:
        """The real :class:`RamseyClient` + :class:`KindEngine` on a host
        of ``speed`` ops/s: ``ramsey`` units on the cost model, as in the
        SC98 world, other kinds on ``engines`` or their registered one."""
        client = RamseyClient(
            name, [self.CONTACT],
            KindEngine(engines={"ramsey": ModelEngine(), **(engines or {})}),
            infra="sim", work_period=0.25, report_period=0.5,
            hello_retry=1.0)
        self.add(name, "cli", client, speed=speed)
        return client

    def gateway_report(self) -> dict:
        gateway = self.gateway
        return {
            "requests": gateway.core.requests,
            "rejected": gateway.core.rejected,
            "restarts": gateway.restarts,
            "requeued_on_restart": gateway.requeued_on_restart,
            "scheduler": asdict(gateway.stats),
            "work": gateway.work.stats(),
        }

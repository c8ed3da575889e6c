"""The gateway's simulated-time world: same HTTP, deterministic run.

:class:`TwinWorld` runs the live gateway node's own component,
:class:`~repro.control.component.GatewayComponent`, under simulated
time, with HTTP/1.1 bytes riding the simulated network as segments
(:func:`~repro.core.component.segment`: the bytes are the protocol).
:class:`HttpUser` carries the conversations live clients carry on
sockets, and the real :class:`~repro.ramsey.client.RamseyClient` pulls
jobs of any kind over SCH_*. A :class:`~repro.control.scenario.Scenario`
not run as processes runs here: seeded streams and the virtual clock
make its report a pure function of the scenario, so a pinned digest
proves the control plane's logic hides no nondeterminism.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Optional

from ..core.component import Component, Effect, Send, SetTimer, segment
from ..core.linguafranca.messages import Message
from ..core.services.kinds import KindEngine
from ..core.simdriver import SimWorld
from ..core.telemetry import Telemetry
from ..ramsey.client import ModelEngine, RamseyClient
from ..simgrid.host import Host
from ..simgrid.load import ConstantLoad
from .component import GatewayComponent
from .http import HttpClientConnection

__all__ = ["ForgingEngine", "HttpUser", "TwinWorld"]

T_NEXT = "http:next"


class HttpUser(Component):
    """The twin of a :class:`~repro.control.client.HttpSocket`: an
    :class:`~repro.control.http.HttpClientConnection` carrying a
    ``conversation`` (a :class:`~repro.control.loadgen.UserMix`, or the
    ME's :class:`~repro.explore.queue.FeedPump`) in simulated segments.
    The first request goes out ``start`` simulated seconds in, each next
    one ``period`` after the last answer (or the pump's ``resume_at``),
    or after a hang-up that left it unanswered, on a new connection."""

    def __init__(self, name: str, gateway: str, conversation,
                 period: float, start: float = 0.0) -> None:
        super().__init__(name)
        self.gateway = gateway
        self.conversation = conversation
        self.period = period
        self.start = start
        self.requests = 0
        self.http = HttpClientConnection(gateway.partition("/")[0])

    def on_start(self, now: float) -> list[Effect]:
        return [SetTimer(T_NEXT, self.start)]

    def on_timer(self, key: str, now: float) -> list[Effect]:
        frame = self.http.request(self.conversation)
        if frame is None:
            return []
        self.requests += 1
        return [Send(self.gateway, segment(self.contact, frame))]

    def on_message(self, message: Message, now: float) -> list[Effect]:
        if self.http.receive(message.body["d"], now) is None:
            if not message.body.get("fin"):
                return []
            self.http = HttpClientConnection(self.http.host)
        return [SetTimer(T_NEXT, max(self.period, getattr(
            self.conversation, "resume_at", now) - now))]


class ForgingEngine:
    """A dishonest host (§3.1's threat) for a client's ``engines`` map:
    ``engine``'s first ``first`` results pass through ``forge``."""

    def __init__(self, engine, forge: Callable[[dict], dict],
                 first: int = 1) -> None:
        self.engine, self.forge, self.first = engine, forge, first
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
        return {"requests": gateway.core.requests,
                "rejected": gateway.core.rejected,
                "restarts": gateway.restarts,
                "requeued_on_restart": gateway.requeued_on_restart,
                "scheduler": asdict(gateway.stats),
                "work": gateway.work.stats()}

"""The gateway's simulated-time world: same HTTP, deterministic run.

The live gateway is an :class:`~repro.control.http.HttpServer` feeding
the gateway's :func:`~repro.control.gateway.http_app` on a real reactor.
Its twin here is :class:`GatewayComponent`: the same decoder and the
same app, fed HTTP/1.1 bytes that ride the simulated network as
segments (``HTTP`` messages whose body is the bytes and nothing else).
:class:`HttpUser` is the client end of one keep-alive connection,
carrying a user's :class:`~repro.control.loadgen.UserMix` or the ME's
:class:`~repro.explore.queue.FeedPump`; the real
:class:`~repro.ramsey.client.RamseyClient` pulls jobs of any kind over
SCH_*. :class:`TwinWorld` is where a
:class:`~repro.control.scenario.Scenario` runs when it is not run as
real processes: seeded streams and the virtual clock make its report a
pure function of the scenario, which is what lets a pinned digest prove
the control plane's logic hides no nondeterminism.
"""

from __future__ import annotations

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
from ..simgrid.host import Host
from ..simgrid.load import ConstantLoad
from .gateway import GatewayCore, http_app
from .http import (HttpDecoder, HttpRequest, HttpResponseDecoder,
                   render_request, respond)
from .workqueue import MemoryJournal, WorkQueue

__all__ = [
    "ForgingEngine",
    "GatewayComponent",
    "HttpUser",
    "TwinWorld",
]

#: The message type of a simulated TCP segment.
HTTP = "HTTP"

T_RESTART = "gw:restart"
T_PARKED = "gw:parked"
T_NEXT = "http:next"


def segment(sender: str, data: bytes) -> Message:
    """One simulated TCP segment carrying ``data``."""
    return Message(mtype=HTTP, sender=sender,
                   body={"d": data.decode("latin-1")})


class GatewayComponent(SchedulerServer):
    """The control-plane gateway as a sans-IO component.

    Downward it *is* a :class:`SchedulerServer` (workers pull jobs over
    SCH_*); upward it serves HTTP segments as the live
    :class:`~repro.control.http.HttpServer` serves sockets: one
    :class:`HttpDecoder` per peer, requests answered in order through
    :func:`~repro.control.gateway.http_app` on simulated time, a parked
    long-poll re-offered on every event the gateway handles and at its
    deadline. The work source is a journal-backed :class:`WorkQueue`;
    ``restart_after`` schedules the deterministic analogue of a SIGKILL +
    supervisor respawn at that many simulated seconds: scheduler state,
    in-flight assignments and every connection die, and the store is
    rebuilt from the journal, accepted jobs requeued-not-dropped exactly
    like the live journal replay.
    """

    def __init__(self, name: str,
                 restart_after: Optional[float] = None) -> None:
        work = WorkQueue(journal=MemoryJournal(), prefix=f"{name}-job")
        super().__init__(name, work, report_period=0.5, reap_period=0.5)
        self.restart_after = restart_after
        self.restarts = 0
        self.requeued_on_restart = 0
        self._now = 0.0
        clock = work.clock = lambda: self._now
        self.core = GatewayCore(name, work, telemetry=self.telemetry)
        self.app = http_app(self.core, clock, clock)
        #: Peer contact -> its connection's request decoder, and -> the
        #: long-poll it has parked.
        self._decoders: dict[str, HttpDecoder] = {}
        self._parked: dict[str, HttpRequest] = {}

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
        return super().on_timer(key, now) + self._unpark()

    def _restart(self, now: float) -> list[Effect]:
        self.restarts += 1
        self.clients.clear()
        self._decoders.clear()
        self._parked.clear()
        self.forecasts = ForecastRegistry()
        self.requeued_on_restart = self.work.replay()
        return [LogLine(
            f"simulated restart #{self.restarts}: "
            f"{self.requeued_on_restart} job(s) requeued from the journal")]

    # -- messages -------------------------------------------------------------
    def on_message(self, message: Message, now: float) -> list[Effect]:
        self._now = now
        if message.mtype != HTTP:
            return super().on_message(message, now) + self._unpark()
        peer = message.sender
        decoder = self._decoders.get(peer)
        if decoder is None:  # a new connection
            decoder = self._decoders[peer] = HttpDecoder()
        decoder.feed(message.body["d"].encode("latin-1"))
        return self._serve(peer) + self._unpark()

    def _serve(self, peer: str) -> list[Effect]:
        """Answer ``peer``'s parked request, then each request its
        connection holds, in order, until one parks or one closes it;
        the answers leave in one segment, as one flush does live."""
        frames = []
        while (decoder := self._decoders.get(peer)) is not None:
            request = self._parked.pop(peer, None) or decoder.next_request()
            if request is None:
                break
            response = respond(self.app, request)
            if response is None:
                self._parked[peer] = request
                break
            frames.append(response)
            if request.close:
                del self._decoders[peer]
        if not frames:
            return []
        return [Send(peer, segment(self.contact, b"".join(frames)))]

    def _unpark(self) -> list[Effect]:
        """Re-offer every parked long-poll, as the live reactor does each
        turn, and wake at the first deadline still to come."""
        if not self._parked:
            return []
        effects = [effect for peer in list(self._parked)
                   for effect in self._serve(peer)]
        if self._parked:
            first = min(request.deadline for request in self._parked.values())
            effects.append(SetTimer(T_PARKED, first - self._now))
        return effects


class HttpUser(Component):
    """One keep-alive HTTP/1.1 connection under simulated time, the twin
    of one :class:`~repro.control.loadgen.GatewayStorm` user: one request
    in flight, one timer. It carries a sans-IO ``conversation`` (a
    :class:`~repro.control.loadgen.UserMix`, or the ME's
    :class:`~repro.explore.queue.FeedPump`): ``next_request()`` gives
    ``(kind, method, path, doc)``, or ``None`` to end it, and
    ``answer(kind, status, body, now)`` takes the reply. The first
    request goes out ``start`` simulated seconds in, each next one
    ``period`` after the last answer."""

    def __init__(self, name: str, gateway: str, conversation,
                 period: float, start: float = 0.0) -> None:
        super().__init__(name)
        self.gateway = gateway
        self.conversation = conversation
        self.period = period
        self.start = start
        self.requests = 0
        self._host = gateway.partition("/")[0]
        self._decoder = HttpResponseDecoder()
        #: The kind of the request awaiting its answer.
        self._inflight: Optional[str] = None

    def on_start(self, now: float) -> list[Effect]:
        return [SetTimer(T_NEXT, self.start)]

    def on_timer(self, key: str, now: float) -> list[Effect]:
        request = self.conversation.next_request()
        if request is None:
            return []
        self._inflight, method, path, doc = request
        self.requests += 1
        return [Send(self.gateway, segment(
            self.contact, render_request(method, path, doc, self._host)))]

    def on_message(self, message: Message, now: float) -> list[Effect]:
        self._decoder.feed(message.body["d"].encode("latin-1"))
        response = self._decoder.next_response()
        if response is None:
            return []
        status, headers, body = response
        if headers.get("connection") == "close":  # a new connection next
            self._decoder = HttpResponseDecoder()
        self.conversation.answer(self._inflight, status, body, now)
        return [SetTimer(T_NEXT, self.period)]


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

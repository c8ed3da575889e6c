"""The gateway as one sans-IO component, on both planes: the live
gateway node runs :class:`GatewayComponent` under
:class:`~repro.core.netdriver.NetDriver`, whose stream listener makes
each HTTP connection a peer contact and each read a segment, and the
twin under :class:`~repro.core.simdriver.SimDriver`, where
:class:`~repro.control.sim.HttpUser` writes the segments."""

from __future__ import annotations

from typing import Optional

from ..core.component import SEGMENT, Effect, LogLine, Send, SetTimer, segment
from ..core.forecasting.benchmarking import ForecastRegistry
from ..core.linguafranca.messages import Message
from ..core.services.scheduler import SchedulerServer
from ..core.telemetry import Telemetry
from ..obs.recordlog import RecordLog
from .gateway import GatewayCore, http_app
from .http import HttpConnection
from .workqueue import WorkQueue

__all__ = ["GatewayComponent"]

T_RESTART = "gw:restart"
T_PARKED = "gw:parked"


class GatewayComponent(SchedulerServer):
    """A :class:`SchedulerServer` whose work source is a journal-backed
    :class:`~repro.control.workqueue.WorkQueue` (in memory without a
    ``journal``), serving HTTP upward: one
    :class:`~repro.control.http.HttpConnection` per peer, answered in
    order through :func:`~repro.control.gateway.http_app` on the
    driver's clock. A parked long-poll is re-offered only when the feed
    moved during the hook or the first deadline fired (``gw:parked``);
    a peer's FIN drops its connection.
    ``restart_after`` schedules the twin's analogue of a SIGKILL +
    respawn: scheduler state and every connection die, and the store is
    rebuilt from the journal, accepted jobs requeued-not-dropped.
    """

    def __init__(self, name: str, journal: Optional[RecordLog] = None,
                 restart_after: Optional[float] = None) -> None:
        work = WorkQueue(journal=journal, prefix=f"{name}-job")
        super().__init__(name, work, report_period=0.5, reap_period=0.5)
        self.restart_after = restart_after
        self.restarts = 0
        self.requeued_on_restart = 0
        clock = work.clock = lambda: self.runtime.now()
        self.core = GatewayCore(name, work, telemetry=self.telemetry)
        self.app = http_app(self.core, clock)
        #: Peer contact -> its HTTP connection.
        self.conns: dict[str, HttpConnection] = {}
        #: The connections of :attr:`conns` with a request parked.
        self.parked: dict[str, HttpConnection] = {}
        #: The deadline ``gw:parked`` is armed for, if any.
        self._wake: Optional[float] = None

    def bind_telemetry(self, telemetry: Telemetry) -> None:
        super().bind_telemetry(telemetry)
        self.core.telemetry = self.work.telemetry = telemetry

    # -- lifecycle ------------------------------------------------------------
    def on_start(self, now: float) -> list[Effect]:
        self.core.started_at = now
        effects = super().on_start(now)
        if self.restart_after is not None:
            effects.append(SetTimer(T_RESTART, self.restart_after))
        return effects

    def on_timer(self, key: str, now: float) -> list[Effect]:
        if key == T_RESTART:
            return self._restart(now)
        seq = self.core.events.next_seq
        if key == T_PARKED:  # the first deadline passed: re-offer them all
            self._wake, seq = None, -1
        return super().on_timer(key, now) + self._unpark(now, seq)

    def _restart(self, now: float) -> list[Effect]:
        self.restarts += 1
        # A parked long-poll dies unanswered, and its peer sees the reset.
        resets: list[Effect] = [Send(peer, segment(self.contact, b"",
                                                   fin=True))
                                for peer in self.parked]
        self.clients.clear()
        self.conns.clear()
        self.parked.clear()
        self.forecasts = ForecastRegistry()
        self.requeued_on_restart = self.work.replay()
        return resets + [LogLine(
            f"simulated restart #{self.restarts}: "
            f"{self.requeued_on_restart} job(s) requeued from the journal")]

    # -- messages -------------------------------------------------------------
    def on_message(self, message: Message, now: float) -> list[Effect]:
        seq = self.core.events.next_seq
        if message.mtype != SEGMENT:
            return super().on_message(message, now) + self._unpark(now, seq)
        peer, body = message.sender, message.body
        if body.get("fin"):  # the peer hung up
            self.conns.pop(peer, None)
            self.parked.pop(peer, None)
            return self._unpark(now, seq)
        conn = self.conns.get(peer)
        if conn is None:  # a new connection
            conn = self.conns[peer] = HttpConnection()
        conn.decoder.feed(body["d"])
        return self._serve(peer, conn) + self._unpark(now, seq)

    def _serve(self, peer: str, conn: HttpConnection) -> list[Effect]:
        """``conn``'s answers, in one segment as one flush sends them
        live; the one that ends the connection carries the FIN."""
        frames = conn.serve(self.app)
        if conn.closed:
            del self.conns[peer]
        if conn.parked is not None:
            self.parked[peer] = conn
        else:
            self.parked.pop(peer, None)
        if not frames:
            return []
        return [Send(peer, segment(self.contact, b"".join(frames),
                                   fin=conn.closed))]

    def _unpark(self, now: float, seq: int) -> list[Effect]:
        """Re-offer each parked long-poll if the feed moved past ``seq``,
        where it ended when the hook began: nothing else but a deadline
        answers one. Then wake at the first deadline still to come,
        unless the wake-up is armed for it already."""
        if not self.parked:
            return []
        effects: list[Effect] = []
        if seq != self.core.events.next_seq:
            for peer, conn in list(self.parked.items()):
                effects += self._serve(peer, conn)
        wake = min((conn.parked.deadline for conn in self.parked.values()),
                   default=None)
        if wake is not None and wake != self._wake:
            # Armed from ``now``, the dispatch time the driver adds the
            # delay to, so the wake-up finds the deadline passed.
            self._wake = wake
            effects.append(SetTimer(T_PARKED, wake - now))
        return effects

"""Driver running a sans-IO :class:`Component` on real TCP sockets.

The counterpart of :class:`~repro.core.simdriver.SimDriver` for actual
deployment: the same component code (Gossip server, scheduler, client)
binds to a real port, receives lingua-franca packets from the network,
and has its timers driven by the wall clock. The interpreter over the
component is the shared :class:`~repro.core.driver.ComponentDriver`; this
module adds the monotonic clock, the socket transport and the reactor
lifecycle. Single-threaded, per the paper's portability rules — the loop
multiplexes socket readiness and timer deadlines exactly the way the C
prototype multiplexed ``select()`` time-outs.

Sends are *datagram-style and asynchronous*: every ``Send`` effect is
queued on a non-blocking per-peer connection (see
:class:`~repro.core.linguafranca.tcp.AsyncSender`) and flushed in
batched vectored writes as the socket becomes writable — the reactor
never blocks in ``connect()`` or ``send()``, so one driver sustains
thousands of concurrent peers. Unreachable peers cost
:attr:`send_errors`, never an exception, and recovery is the component's
time-out/retry ladder — exactly how EveryWare survives transports that
drop connections without notice. The server, every accepted connection,
and every outbound connection share one
:class:`~repro.core.linguafranca.tcp.EventLoop`, i.e. one ``select()``
per reactor turn.
"""

from __future__ import annotations

import random
import signal
import time
from typing import Callable, Optional

from .component import Component, Send
from .driver import ComponentDriver
from .forecasting.benchmarking import event_tag
from .linguafranca.messages import Message
from .linguafranca.tcp import (
    AsyncSender,
    EventLoop,
    TcpServer,
    TransportError,
)
from .policy import TimeoutPolicy
from .telemetry import Telemetry

__all__ = ["NetDriver"]


class NetDriver(ComponentDriver):
    """Runs one component on a real TCP endpoint."""

    def __init__(
        self,
        component: Component,
        host: str = "127.0.0.1",
        port: int = 0,
        log_sink=None,
        seed: Optional[int] = None,
        timeout_policy: Optional[TimeoutPolicy] = None,
        telemetry: Optional[Telemetry] = None,
        speed: float = 0.0,
    ) -> None:
        #: One selector shared by the listening socket, every accepted
        #: connection, and every outbound connection.
        self.loop = EventLoop()
        self.server = TcpServer(host, port, self._handle, loop=self.loop)
        self.contact = self.server.contact
        self.sender = AsyncSender(self.loop, sender=self.contact,
                                  observer=self._observe_send)
        self._rng = random.Random(seed)
        self._t0 = time.monotonic()
        #: Local (non-transport) send failures, e.g. malformed addresses;
        #: transport failures are metered by the async sender and the two
        #: are summed by :attr:`send_errors`.
        self._address_errors = 0
        self._started = False
        # Real mode has no simulated host to meter a client against; this
        # budget (ops/second of wall time, default 0) lets self-metering
        # engines size their compute slices.
        self.speed = float(speed)
        #: Set (from a signal handler or another thread) to ask the loop
        #: to stop at the next reactor turn; drained by :meth:`step`.
        self._stop_requested: Optional[str] = None
        #: Invoked once per reactor turn (telemetry shippers, supervisors
        #: piggybacking on the loop) — the wall-clock twin of the sim
        #: engine's ``drain_hook``.
        self.tick_hook: Optional[Callable[[], None]] = None
        #: Invoked (in order) during :meth:`shutdown` after timers are
        #: cancelled, before sockets close: flush pending telemetry/log
        #: lines here.
        self.drain_hooks: list[Callable[[], None]] = []
        self._shutdown_done = False
        # The policy here also budgets each frame's connect+send, per
        # destination/message tag (§2.2 dynamic time-out discovery). Span
        # timestamps on this plane are wall seconds since driver start.
        super().__init__(
            component, self.contact, self.contact.split(":")[0],
            timeout_policy or TimeoutPolicy.forecast(default=2.0),
            telemetry, log_sink)

    # -- clock, transport, RNG ------------------------------------------------
    def now(self) -> float:
        return time.monotonic() - self._t0

    @property
    def send_errors(self) -> int:
        """Frames that could not be delivered (unreachable peer, stuck
        connection expired past its deadline, malformed address)."""
        return self._address_errors + self.sender.errors

    @property
    def reconnects(self) -> int:
        """Transparent outbound reconnects of the async sender."""
        return self.sender.reconnects

    def _observe_send(self, tag: Optional[str], elapsed: float) -> None:
        # Measured queue+connect+write time feeds the forecaster so
        # future budgets track observed behavior.
        self.timeout_policy.observe(tag, elapsed)

    def _resolve(self, dst: str) -> Optional[tuple[str, int]]:
        host, _, port = dst.rpartition(":")
        try:
            return host, int(port)
        except ValueError:
            self._address_errors += 1
            return None

    def _transmit(self, route: tuple[str, int], eff: Send) -> None:
        self._enqueue(route, eff.dst, eff.message, eff.timeout)

    def _enqueue(self, route: tuple[str, int], dst: str, message: Message,
                 timeout, tag: Optional[str] = None) -> None:
        if tag is None:
            tag = event_tag(dst, message.mtype)
        if isinstance(timeout, TimeoutPolicy):
            timeout = timeout.timeout_for(tag)
        elif timeout is None:
            timeout = self.timeout_policy.timeout_for(tag)
        # Queued, not sent: the frame leaves (in a batched vectored
        # write) once the peer connection is writable. Unreachable peers
        # surface asynchronously as sender errors.
        self.sender.post(*route, message, timeout=float(timeout), tag=tag)

    def post(self, dst: str, message: Message,
             timeout: Optional[float] = None, tag: Optional[str] = None) -> None:
        """Fire-and-forget send outside the effect system (shippers,
        supervisors riding the driver loop). Same failure semantics as a
        ``Send`` effect: errors are metered, never raised."""
        route = self._resolve(dst)
        if route is not None:
            self._enqueue(route, dst, message, timeout, tag)

    def _rng_for(self, purpose: str) -> random.Random:
        return self._rng  # one seeded source serves every purpose

    def _host_speed(self) -> float:
        return self.speed

    def _handle(self, message: Message) -> Optional[Message]:
        self._dispatch(message, self.now())
        return None  # all replies travel as explicit Send effects

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Run the component's ``on_start`` effects. Idempotent."""
        if self._started:
            return
        self._started = True
        self._start_component(self.now())

    def request_stop(self, reason: str = "stop") -> None:
        """Ask the reactor loop to stop at its next turn.

        Safe to call from a signal handler or another thread: it only
        sets a flag, which :meth:`step` drains on the loop's own thread.
        """
        if self._stop_requested is None:
            self._stop_requested = reason

    def install_signal_handlers(self, *signals_: int) -> None:
        """Route SIGTERM/SIGINT (or the given signals) to
        :meth:`request_stop`, so a supervisor's drain turns into a
        graceful stop instead of an abrupt exit (main thread only)."""
        for sig in signals_ or (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, lambda signum, frame: self.request_stop(
                f"signal:{signal.Signals(signum).name}"))

    def step(self, max_wait: float = 0.05) -> None:
        """One reactor turn: poll sockets until the next timer deadline."""
        if not self._started:
            self.start()
        if self._stop_requested is not None and not self._stopped:
            self._stopped = True
            self.stop_reason = self._stop_requested
            return
        deadline = self._next_deadline()
        wait = max_wait
        if deadline is not None:
            wait = min(max(deadline - self.now(), 0.0), max_wait)
        # One select() covers the listener, inbound connections, and
        # every outbound connection.
        self.server.step(wait)
        self.sender.service()
        self._fire_due(self.now())
        if self.tick_hook is not None:
            self.tick_hook()

    def run(self, duration: float) -> str:
        """Pump the reactor for ``duration`` wall seconds (or until the
        component stops itself / :meth:`request_stop` fires); returns the
        stop reason."""
        end = self.now() + duration
        while not self._stopped and self.now() < end:
            self.step()
        self.component.on_stop(self.now(), self.stop_reason or "duration")
        return self.stop_reason or "duration"

    def shutdown(self) -> str:
        """Graceful drain (idempotent): cancel every pending timer and
        reliable send, run the registered :attr:`drain_hooks` so pending
        log lines/telemetry flush, then flush queued outbound frames
        (bounded) and close every socket. Returns the stop reason."""
        reason = self.stop_reason or self._stop_requested or "shutdown"
        if self._shutdown_done:
            return reason
        self._shutdown_done = True
        self._stopped = True
        self.stop_reason = reason
        self._timers.clear()
        self._timer_ctx.clear()
        # Outstanding reliable sends die with the process; their
        # give-up recovery is the restarted component's problem.
        self.tracker = None
        for hook in self.drain_hooks:
            try:
                hook()
            except Exception:  # noqa: BLE001 — drain must not mask drain
                pass
        self.close()
        return reason

    def _flush_outbound(self, budget: float = 0.5) -> None:
        """Pump the loop until queued frames are delivered or resolved as
        errors, bounded by ``budget`` wall seconds. Connect failures
        (refused peers) resolve here too — readiness is the only place
        non-blocking connect errors surface."""
        deadline = time.monotonic() + budget
        while self.sender.pending() and time.monotonic() < deadline:
            try:
                self.loop.step(0.02)
            except TransportError:
                break
            self.sender.service()

    def close(self) -> None:
        self._flush_outbound()
        self.sender.close()
        self.server.close()
        self.loop.close()

"""Driver running a sans-IO :class:`Component` on real TCP sockets.

The counterpart of :class:`~repro.core.simdriver.SimDriver` for actual
deployment: the same component code (Gossip server, scheduler, client)
binds to a real port, receives lingua-franca packets from the network,
and has its timers driven by the wall clock. Single-threaded, per the
paper's portability rules — the loop multiplexes socket readiness and
timer deadlines exactly the way the C prototype multiplexed ``select()``
time-outs.

Sends are *datagram-style and asynchronous*: every ``Send`` effect is
queued on a non-blocking per-peer connection (see
:class:`~repro.core.linguafranca.tcp.AsyncSender`) and flushed in
batched vectored writes as the socket becomes writable — the reactor
never blocks in ``connect()`` or ``send()``, so one driver sustains
thousands of concurrent peers. Failure semantics are unchanged from the
blocking driver: unreachable peers cost :attr:`send_errors`, never an
exception, and recovery is the component's time-out/retry ladder —
exactly how EveryWare survives transports that drop connections without
notice. The server, every accepted connection, and every outbound
connection share one :class:`~repro.core.linguafranca.tcp.EventLoop`,
i.e. one ``select()`` per reactor turn.
"""

from __future__ import annotations

import random
import signal
import time
from typing import Callable, Optional

from .component import CancelTimer, Component, Effect, LogLine, Send, SetTimer, Stop
from .forecasting.benchmarking import event_tag
from .linguafranca.messages import Message
from .linguafranca.tcp import (
    AsyncSender,
    EventLoop,
    TcpServer,
    TransportError,
)
from .policy import ReliableSendTracker, TimeoutPolicy
from .telemetry import Telemetry

__all__ = ["NetDriver"]


class _NetRuntime:
    def __init__(self, driver: "NetDriver") -> None:
        self._d = driver

    def now(self) -> float:
        return self._d.now()

    def contact(self) -> str:
        return self._d.contact

    def host_name(self) -> str:
        return self._d.contact.split(":")[0]

    def speed(self) -> float:
        # Real mode has no simulated host to meter a client against; the
        # driver-level budget (ops/second of wall time, default 0) lets
        # self-metering engines size their compute slices.
        return self._d.speed

    def random(self) -> float:
        return self._d._rng.random()


class NetDriver:
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
        self.component = component
        #: One selector shared by the listening socket, every accepted
        #: connection, and every outbound connection.
        self.loop = EventLoop()
        self.server = TcpServer(host, port, self._handle, loop=self.loop)
        self.contact = self.server.contact
        # Per-destination/message-tag connect+send budgets; dynamic
        # time-out discovery (§2.2) instead of the old hardcoded 2.0s.
        self.timeout_policy = timeout_policy or TimeoutPolicy.forecast(default=2.0)
        self.sender = AsyncSender(self.loop, sender=self.contact,
                                  observer=self._observe_send)
        self.log_sink = log_sink
        self.tracker: Optional[ReliableSendTracker] = None
        self._rng = random.Random(seed)
        self._timers: dict[str, float] = {}
        self._t0 = time.monotonic()
        self._stopped = False
        self.stop_reason: Optional[str] = None
        #: Local (non-transport) send failures, e.g. malformed addresses;
        #: transport failures are metered by the async sender and the two
        #: are summed by :attr:`send_errors`.
        self._address_errors = 0
        self.handler_errors = 0
        self._started = False
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
        # Same observability surface as SimDriver: a shared world handle
        # or a private tracing-off default. Span timestamps here are wall
        # seconds since driver start (there is no simulated clock).
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._timer_ctx: dict[str, Optional[tuple[int, int]]] = {}
        component.bind_telemetry(self.telemetry)

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

    # -- effects ------------------------------------------------------------
    def _apply(self, effects: list[Effect]) -> None:
        tracer = self.telemetry.tracer
        for eff in effects:
            if isinstance(eff, Send):
                message = eff.message
                if eff.retry is not None:
                    pending = self._reliable().track(eff, self.now())
                    if tracer.enabled:
                        parent = (message.trace if message.trace is not None
                                  else tracer.current_ctx())
                        span = tracer.begin(f"call {message.mtype}",
                                            component=self.component.name,
                                            parent=parent, start=self.now(),
                                            mtype=message.mtype)
                        if eff.label:
                            span.args["label"] = eff.label
                        if message.trace is None:
                            message.trace = (span.trace_id, span.span_id)
                        pending.span = span
                elif tracer.enabled and message.trace is None:
                    span = tracer.instant(f"send {message.mtype}", self.now(),
                                          component=self.component.name,
                                          parent=tracer.current_ctx(),
                                          mtype=message.mtype)
                    message.trace = (span.trace_id, span.span_id)
                self.telemetry.metrics.counter(
                    "msg.sent", mtype=message.mtype).inc()
                self._transmit(eff)
            elif isinstance(eff, SetTimer):
                self._timers[eff.key] = self.now() + eff.delay
                if tracer.enabled:
                    self._timer_ctx[eff.key] = tracer.current_ctx()
            elif isinstance(eff, CancelTimer):
                self._timers.pop(eff.key, None)
                self._timer_ctx.pop(eff.key, None)
            elif isinstance(eff, LogLine):
                if self.log_sink is not None:
                    self.log_sink(self.now(), self.component.name,
                                  eff.level, eff.text)
            elif isinstance(eff, Stop):
                self._stopped = True
                self.stop_reason = eff.reason
            else:
                raise TypeError(f"unknown effect {eff!r}")

    def _observe_send(self, tag: Optional[str], elapsed: float) -> None:
        # Measured queue+connect+write time feeds the forecaster so
        # future budgets track observed behavior.
        self.timeout_policy.observe(tag, elapsed)

    def _transmit(self, eff: Send) -> None:
        host, _, port = eff.dst.rpartition(":")
        tag = event_tag(eff.dst, eff.message.mtype)
        if isinstance(eff.timeout, TimeoutPolicy):
            timeout = eff.timeout.timeout_for(tag)
        elif eff.timeout is not None:
            timeout = float(eff.timeout)
        else:
            timeout = self.timeout_policy.timeout_for(tag)
        try:
            port_no = int(port)
        except ValueError:
            self._address_errors += 1
            return
        # Queued, not sent: the frame leaves (in a batched vectored
        # write) once the peer connection is writable. Unreachable peers
        # surface asynchronously as sender errors.
        self.sender.post(host, port_no, eff.message,
                         timeout=timeout, tag=tag)

    def post(self, dst: str, message: Message,
             timeout: Optional[float] = None, tag: Optional[str] = None) -> None:
        """Fire-and-forget send outside the effect system (shippers,
        supervisors riding the driver loop). Same failure semantics as a
        ``Send`` effect: errors are metered, never raised."""
        host, _, port = dst.rpartition(":")
        if tag is None:
            tag = event_tag(dst, message.mtype)
        if timeout is None:
            timeout = self.timeout_policy.timeout_for(tag)
        try:
            port_no = int(port)
        except ValueError:
            self._address_errors += 1
            return
        self.sender.post(host, port_no, message, timeout=timeout, tag=tag)

    def _reliable(self) -> ReliableSendTracker:
        if self.tracker is None:
            self.tracker = ReliableSendTracker(
                self.timeout_policy, self._rng.random,
                metrics=self.telemetry.metrics)
        return self.tracker

    def _handle(self, message: Message) -> Optional[Message]:
        now = self.now()
        tracer = self.telemetry.tracer
        if self.tracker is not None:
            resolved = self.tracker.resolve(message.reply_to, now)
            if resolved is not None and resolved.span is not None:
                tracer.finish(resolved.span, now, "ok")
        self.telemetry.metrics.counter("msg.recv", mtype=message.mtype).inc()
        span = None
        if tracer.enabled:
            span = tracer.begin(f"recv {message.mtype}",
                                component=self.component.name,
                                parent=message.trace, start=now,
                                mtype=message.mtype)
            tracer.current = span
        outcome = "ok"
        try:
            effects = self.component.on_message(message, now)
        except Exception as exc:  # noqa: BLE001 — robustness boundary
            self.handler_errors += 1
            outcome = "error"
            if self.log_sink is not None:
                self.log_sink(self.now(), self.component.name, "error",
                              f"dropped {message.mtype}: {exc!r}")
            effects = []
        try:
            self._apply(effects)
        finally:
            if span is not None:
                tracer.finish(span, self.now(), outcome)
                tracer.current = None
        return None  # all replies travel as explicit Send effects

    def _service_reliable(self) -> None:
        if self.tracker is None or not len(self.tracker):
            return
        now = self.now()
        tracer = self.telemetry.tracer
        for action, pending in self.tracker.due(now):
            if self._stopped:
                return
            message = pending.eff.message
            if action == "resend":
                if tracer.enabled:
                    parent = (pending.span.ctx if pending.span is not None
                              else message.trace)
                    tracer.instant(f"retransmit {message.mtype}", now,
                                   component=self.component.name,
                                   parent=parent, outcome="retransmit",
                                   mtype=message.mtype,
                                   args={"attempt": pending.attempt})
                self._transmit(pending.eff)
            else:
                span = None
                if tracer.enabled:
                    if pending.span is not None:
                        tracer.finish(pending.span, now, "gave-up")
                    parent = (pending.span.ctx if pending.span is not None
                              else message.trace)
                    span = tracer.begin(
                        f"send-failed {pending.eff.label or message.mtype}",
                        component=self.component.name, parent=parent,
                        start=now, mtype=message.mtype)
                    tracer.current = span
                try:
                    self._apply(self.component.on_send_failed(pending.eff, now))
                finally:
                    if span is not None:
                        tracer.finish(span, self.now(), "gave-up")
                        tracer.current = None

    def _fire_due_timers(self) -> None:
        self._service_reliable()
        while not self._stopped:
            now = self.now()
            due = sorted(
                (t, k) for k, t in self._timers.items() if t <= now
            )
            if not due:
                return
            _, key = due[0]
            del self._timers[key]
            ctx = self._timer_ctx.pop(key, None)
            tracer = self.telemetry.tracer
            span = None
            if tracer.enabled:
                span = tracer.begin(f"timer {key}",
                                    component=self.component.name,
                                    parent=ctx, start=now)
                tracer.current = span
            try:
                self._apply(self.component.on_timer(key, self.now()))
            finally:
                if span is not None:
                    tracer.finish(span, self.now(), "ok")
                    tracer.current = None

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Bind the component and run its on_start effects. Idempotent."""
        if self._started:
            return
        self._started = True
        self.component.bind_runtime(_NetRuntime(self))
        self._apply(self.component.on_start(self.now()))

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
        deadline = min(self._timers.values()) if self._timers else None
        if self.tracker is not None:
            retry_deadline = self.tracker.next_deadline()
            if retry_deadline is not None and (
                deadline is None or retry_deadline < deadline
            ):
                deadline = retry_deadline
        wait = max_wait
        if deadline is not None:
            wait = min(max(deadline - self.now(), 0.0), max_wait)
        # One select() covers the listener, inbound connections, and
        # every outbound connection.
        self.server.step(wait)
        self.sender.service()
        self._fire_due_timers()
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
        if self.tracker is not None:
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

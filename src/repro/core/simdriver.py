"""Driver running a sans-IO :class:`Component` on a simulated host.

The driver owns the endpoint and the timer wheel; the component only ever
sees messages, timer keys, and the current time. There is no driver
process: the network hands every arriving delivery to
:meth:`SimDriver._on_delivery` from the arrival event itself, and timers
and reliable-send deadlines share one wake-up ``Timeout`` that is re-armed
after each handled event (DESIGN §7 has the three same-instant ordering
rules this keeps). When the host dies (Condor reclamation, failure, ...)
the driver's :attr:`~SimDriver.process` handle is interrupted with
:class:`~repro.simgrid.host.HostDown`; the driver unbinds the endpoint and
reports the death through ``on_stop`` — matching how SC98 guest processes
were killed without warning.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Any, Callable, Optional

from ..simgrid.engine import (PRIORITY_URGENT, Environment, Event,
                              SimulationError)
from ..simgrid.host import Host
from ..simgrid.network import Address, AddressError, Delivery, Network
from .component import CancelTimer, Component, Effect, LogLine, Send, SetTimer, Stop
from .linguafranca.endpoint import SimEndpoint
from .policy import ReliableSendTracker, TimeoutPolicy
from .telemetry import Counter, Telemetry

__all__ = ["SimDriver"]

LogSink = Callable[[float, str, str, str], None]  # (time, component, level, text)


class _SimRuntime:
    """Runtime facade handed to the component."""

    def __init__(self, driver: "SimDriver") -> None:
        self._d = driver
        self._rng = None

    def now(self) -> float:
        return self._d.env.now

    def contact(self) -> str:
        return self._d.endpoint.contact

    def host_name(self) -> str:
        return self._d.host.name

    def speed(self) -> float:
        return self._d.host.effective_speed()

    def random(self) -> float:
        if self._rng is None:
            # One stream per component address keeps runs reproducible.
            self._rng = self._d.streams.get(f"component:{self._d.endpoint.contact}")
        return float(self._rng.random())

    def compute_lane(self):
        """The driver's compute lane (``None`` unless a world attached
        one): where components may offload kernel tasks. Lane results
        are bit-identical to inline execution, so using it never changes
        simulation outcomes — only wall-clock speed."""
        return self._d.compute_lane


def _urgently(env: Environment, callback: Callable[[Event], None]) -> None:
    """Run ``callback`` at the current instant, ahead of every
    normal-priority event — where a process's first step and an
    interrupt's delivery sit."""
    event = Event(env)
    event.callbacks.append(callback)
    env.schedule(event, priority=PRIORITY_URGENT)


class _DriverHandle(Event):
    """What the outside holds of a started driver: an event that triggers
    with the stop reason when the driver ends, plus the
    ``is_alive``/``interrupt()`` pair through which hosts and
    infrastructure adapters kill their guests."""

    __slots__ = ("_driver",)

    def __init__(self, driver: "SimDriver") -> None:
        super().__init__(driver.env)
        self._driver = driver

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Kill the driver at the current time; ``on_stop`` sees
        ``host_down:<cause.reason>``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        _urgently(self.env, lambda _event: self._driver._on_interrupt(cause))


class SimDriver:
    """Runs one component on one host."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        host: Host,
        port: str,
        component: Component,
        streams,
        log_sink: Optional[LogSink] = None,
        timeout_policy: Optional[TimeoutPolicy] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.host = host
        self.component = component
        self.streams = streams
        self.address = Address(host.name, port)
        self.endpoint = SimEndpoint(env, network, self.address,
                                    sink=self._on_delivery)
        self.log_sink = log_sink
        # Reply time-outs for reliable sends: forecast-driven per event
        # tag by default (§2.2 dynamic time-out discovery), overridable
        # per driver or per Send effect.
        self.timeout_policy = timeout_policy or TimeoutPolicy.forecast(default=10.0)
        # Created on the first reliable Send; None keeps the common
        # fire-and-forget path allocation-free.
        self.tracker: Optional[ReliableSendTracker] = None
        self._timers: dict[str, float] = {}
        self._stopped = False
        self.handler_errors = 0
        #: Sends dropped for a malformed destination (NetDriver's twin).
        self.send_errors = 0
        self.stop_reason: Optional[str] = None
        self.process: Optional[_DriverHandle] = None
        #: The armed wake-up (or its zero-delay hop); any other wake-up
        #: still on the event queue is superseded and ignored when it fires.
        self._wake: Optional[Event] = None
        # Worlds thread one shared Telemetry through every driver —
        # explicitly, or implicitly via Network.attach_telemetry (so the
        # many driver construction sites inherit it without plumbing); a
        # private (tracing-off) instance keeps standalone drivers working.
        if telemetry is None:
            telemetry = network.telemetry
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        # Optional compute lane (repro.parallel): worlds attach one with
        # attach_compute_lane; None keeps kernel work inline and free.
        self.compute_lane = None
        # Ambient trace context captured at SetTimer time, consumed when
        # the timer fires; only populated while tracing is enabled.
        self._timer_ctx: dict[str, Optional[tuple[int, int]]] = {}
        # Per-driver mtype -> Counter caches so the per-message metric
        # cost is one dict hit, not a registry key build.
        self._sent_counters: dict[str, Counter] = {}
        self._recv_counters: dict[str, Counter] = {}
        component.bind_runtime(_SimRuntime(self))
        component.bind_telemetry(self.telemetry)

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> _DriverHandle:
        """Register as a guest of the host and schedule ``on_start``."""
        handle = _DriverHandle(self)
        self.host.adopt(handle, name=f"drv:{self.address.port}")
        self.process = handle
        _urgently(self.env, self._on_start)
        return handle

    def attach_compute_lane(self, lane) -> None:
        """Offer a compute lane to this driver's component (reachable
        through ``runtime.compute_lane()``)."""
        self.compute_lane = lane

    @property
    def running(self) -> bool:
        return self.process is not None and self.process.is_alive and not self._stopped

    # -- effect application --------------------------------------------------
    def _apply(self, effects: list[Effect]) -> None:
        tracer = self.telemetry.tracer
        for eff in effects:
            if isinstance(eff, Send):
                try:
                    dst = Address.parse(eff.dst)
                except AddressError:
                    # A contact some peer made up (hostile registration):
                    # a metered drop, never a crash of the run.
                    self.send_errors += 1
                    continue
                message = eff.message
                if eff.retry is not None:
                    pending = self._reliable().track(eff, self.env.now)
                    if tracer.enabled:
                        # One "call" span covers the whole reliable
                        # exchange; retransmits and the receiver's handler
                        # span hang off it. A re-issued message that
                        # already carries a trace keeps its root.
                        parent = (message.trace if message.trace is not None
                                  else tracer.current_ctx())
                        span = tracer.begin(
                            f"call {message.mtype}",
                            component=self.component.name,
                            parent=parent,
                            start=self.env.now,
                            mtype=message.mtype,
                        )
                        if eff.label:
                            span.args["label"] = eff.label
                        if message.trace is None:
                            message.trace = (span.trace_id, span.span_id)
                        pending.span = span
                elif tracer.enabled and message.trace is None:
                    span = tracer.instant(
                        f"send {message.mtype}",
                        self.env.now,
                        component=self.component.name,
                        parent=tracer.current_ctx(),
                        mtype=message.mtype,
                    )
                    message.trace = (span.trace_id, span.span_id)
                counter = self._sent_counters.get(message.mtype)
                if counter is None:
                    counter = self._sent_counters[message.mtype] = (
                        self.telemetry.metrics.counter("msg.sent",
                                                       mtype=message.mtype))
                counter.inc()
                self.endpoint.send(dst, message)
            elif isinstance(eff, SetTimer):
                self._timers[eff.key] = self.env.now + eff.delay
                if tracer.enabled:
                    self._timer_ctx[eff.key] = tracer.current_ctx()
            elif isinstance(eff, CancelTimer):
                self._timers.pop(eff.key, None)
                self._timer_ctx.pop(eff.key, None)
            elif isinstance(eff, LogLine):
                if self.log_sink is not None:
                    self.log_sink(self.env.now, self.component.name, eff.level, eff.text)
            elif isinstance(eff, Stop):
                self._stopped = True
                self.stop_reason = eff.reason
            else:
                raise TypeError(f"unknown effect {eff!r}")

    def _reliable(self) -> ReliableSendTracker:
        if self.tracker is None:
            rng = self.streams.get(f"retry:{self.endpoint.contact}")
            self.tracker = ReliableSendTracker(
                self.timeout_policy, lambda: float(rng.random()),
                metrics=self.telemetry.metrics,
            )
        return self.tracker

    def _next_deadline(self) -> Optional[float]:
        deadline = min(self._timers.values()) if self._timers else None
        if self.tracker is not None:
            retry_deadline = self.tracker.next_deadline()
            if retry_deadline is not None and (
                deadline is None or retry_deadline < deadline
            ):
                deadline = retry_deadline
        return deadline

    def _service_reliable(self, now: float) -> None:
        if self.tracker is None or not len(self.tracker):
            return
        tracer = self.telemetry.tracer
        for action, pending in self.tracker.due(now):
            if self._stopped:
                return
            message = pending.eff.message
            if action == "resend":
                if tracer.enabled:
                    parent = (pending.span.ctx if pending.span is not None
                              else message.trace)
                    tracer.instant(
                        f"retransmit {message.mtype}",
                        now,
                        component=self.component.name,
                        parent=parent,
                        outcome="retransmit",
                        mtype=message.mtype,
                        args={"attempt": pending.attempt},
                    )
                self.endpoint.send(pending.eff.dst, message)
            else:  # give_up — the component decides how to recover.
                span = None
                if tracer.enabled:
                    if pending.span is not None:
                        tracer.finish(pending.span, now, "gave-up")
                    parent = (pending.span.ctx if pending.span is not None
                              else message.trace)
                    span = tracer.begin(
                        f"send-failed {pending.eff.label or message.mtype}",
                        component=self.component.name,
                        parent=parent,
                        start=now,
                        mtype=message.mtype,
                    )
                    tracer.current = span
                try:
                    self._apply(self.component.on_send_failed(pending.eff, now))
                finally:
                    if span is not None:
                        tracer.finish(span, self.env.now, "gave-up")
                        tracer.current = None

    def _fire_due_timers(self) -> None:
        now = self.env.now
        tracer = self.telemetry.tracer
        self._service_reliable(now)
        while not self._stopped:
            due = [k for k, t in self._timers.items() if t <= now]
            if not due:
                return
            # Deterministic order for same-deadline timers.
            due.sort(key=lambda k: (self._timers[k], k))
            key = due[0]
            del self._timers[key]
            ctx = self._timer_ctx.pop(key, None)
            span = None
            if tracer.enabled:
                # The timer's causal parent is whatever handler armed it.
                span = tracer.begin(f"timer {key}",
                                    component=self.component.name,
                                    parent=ctx, start=now)
                tracer.current = span
            try:
                self._apply(self.component.on_timer(key, now))
            finally:
                if span is not None:
                    tracer.finish(span, self.env.now, "ok")
                    tracer.current = None

    # -- event entry points -----------------------------------------------------
    # Same-instant ordering is part of the determinism contract (same seed,
    # same bytes), so these keep the event-queue positions the generator
    # loop they replace had: on_start from an urgent zero-delay event, a
    # fresh wake-up Timeout after every handled event, and one zero-delay
    # hop between a wake-up firing and the timers it fires.
    def _on_start(self, _event: Event) -> None:
        tracer = self.telemetry.tracer
        if tracer.enabled:
            span = tracer.begin(f"start {self.component.name}",
                                component=self.component.name,
                                start=self.env.now)
            tracer.current = span
            try:
                self._apply(self.component.on_start(self.env.now))
            finally:
                tracer.finish(span, self.env.now, "ok")
                tracer.current = None
        else:
            self._apply(self.component.on_start(self.env.now))
        self._stop_or_rearm()

    def _on_delivery(self, delivery: Delivery) -> None:
        if self.process is None:
            return  # bound at construction but never started
        message = self.endpoint.message_of(delivery)
        if message is None:
            return  # corrupt data on the wire: dropped, keep listening
        now = self.env.now
        tracer = self.telemetry.tracer
        if self.tracker is not None:
            resolved = self.tracker.resolve(message.reply_to, now)
            if resolved is not None and resolved.span is not None:
                tracer.finish(resolved.span, now, "ok")
        counter = self._recv_counters.get(message.mtype)
        if counter is None:
            counter = self._recv_counters[message.mtype] = (
                self.telemetry.metrics.counter(
                    "msg.recv", mtype=message.mtype))
        counter.inc()
        span = None
        if tracer.enabled:
            span = tracer.begin(f"recv {message.mtype}",
                                component=self.component.name,
                                parent=message.trace,
                                start=now, mtype=message.mtype)
            tracer.current = span
        outcome = "ok"
        profiler = self.env.profiler
        t0 = _perf_counter() if profiler is not None else 0.0
        try:
            effects = self.component.on_message(message, now)
        except Exception as exc:  # noqa: BLE001 — robustness boundary
            # A malformed or hostile message must never take a
            # server down (§2.3 robustness): drop it, log, go on.
            self.handler_errors += 1
            outcome = "error"
            if self.log_sink is not None:
                self.log_sink(now, self.component.name,
                              "error",
                              f"dropped {message.mtype}: {exc!r}")
            effects = []
        if profiler is not None:
            profiler.record_handler(self.component.name,
                                    message.mtype,
                                    _perf_counter() - t0)
        try:
            self._apply(effects)
        finally:
            if span is not None:
                tracer.finish(span, self.env.now, outcome)
                tracer.current = None
        self._fire_due_timers()
        self._stop_or_rearm()

    def _on_wake(self, event: Event) -> None:
        """The wake-up Timeout fired: hop once more through the queue, so
        everything already scheduled for this instant runs first."""
        if event is self._wake:
            hop = self._wake = self.env.timeout(0.0)
            hop.callbacks.append(self._on_due)

    def _on_due(self, event: Event) -> None:
        if event is self._wake:
            self._fire_due_timers()
            self._stop_or_rearm()

    def _stop_or_rearm(self) -> None:
        """After every handled event: finish if the component asked to
        stop, else arm a fresh wake-up for the next deadline."""
        if self._stopped:
            self._finish(self.stop_reason or "stopped")
            return
        deadline = self._next_deadline()
        if deadline is None:
            self._wake = None
        else:
            wake = self._wake = self.env.timeout(
                max(deadline - self.env.now, 0.0))
            wake.callbacks.append(self._on_wake)

    def _on_interrupt(self, cause: Any) -> None:
        if self.process.is_alive:  # else it ended before the kill landed
            self._finish(f"host_down:{getattr(cause, 'reason', cause)}")

    def _finish(self, reason: str) -> None:
        self._stopped = True
        self._wake = None
        self.endpoint.close()
        self.component.on_stop(self.env.now, reason)
        self.process.succeed(reason)

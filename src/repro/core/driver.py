"""The one component driver: everything a driver does that does not depend
on what carries the bytes.

A :class:`~repro.core.component.Component` returns *effects*; this module
is the single interpreter for them, and the single place a component hook
is called. :class:`ComponentDriver` owns effect application, the
``msg.sent``/``msg.recv`` counters, the reliable-send ladder (track →
resend → give-up → ``on_send_failed``), the timer wheel, the dispatch of
one arrived message with its §2.3 robustness boundary, the causal-tracing
spans around every hook, and the :class:`Runtime` facade components see.

What differs between planes is an overridden method, never a test of which
plane this is: a subclass supplies a clock (:meth:`~ComponentDriver.now`),
a transport pair (:meth:`~ComponentDriver._resolve` /
:meth:`~ComponentDriver._transmit`), its RNG and host-speed sources, and
its own lifecycle and wake-up scheduling —
:class:`~repro.core.simdriver.SimDriver` on the simulated grid,
:class:`~repro.core.netdriver.NetDriver` on real sockets.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Any, Callable, Optional

from .component import CancelTimer, Component, Effect, LogLine, Send, SetTimer, Stop
from .linguafranca.messages import Message
from .policy import ReliableSendTracker, TimeoutPolicy
from .telemetry import Counter, Telemetry

__all__ = ["ComponentDriver", "LogSink"]

LogSink = Callable[[float, str, str, str], None]  # (time, component, level, text)


class _DriverRuntime:
    """Runtime facade handed to the component."""

    def __init__(self, driver: "ComponentDriver", contact: str,
                 host_name: str) -> None:
        self._d = driver
        self._contact = contact
        self._host_name = host_name
        self._rng = None

    def now(self) -> float:
        return self._d.now()

    def contact(self) -> str:
        return self._contact

    def host_name(self) -> str:
        return self._host_name

    def speed(self) -> float:
        return self._d._host_speed()

    def random(self) -> float:
        if self._rng is None:
            self._rng = self._d._rng_for("component")
        return float(self._rng.random())


class ComponentDriver:
    """Runs one component; subclasses say on what."""

    def __init__(
        self,
        component: Component,
        contact: str,
        host_name: str,
        timeout_policy: TimeoutPolicy,
        telemetry: Optional[Telemetry],
        log_sink: Optional[LogSink],
    ) -> None:
        self.component = component
        self.log_sink = log_sink
        # Reply time-outs for reliable sends: forecast-driven per event
        # tag by default (§2.2 dynamic time-out discovery), overridable
        # per driver or per Send effect.
        self.timeout_policy = timeout_policy
        # Created on the first reliable Send; None keeps the common
        # fire-and-forget path allocation-free.
        self.tracker: Optional[ReliableSendTracker] = None
        self._timers: dict[str, float] = {}
        self._stopped = False
        self.handler_errors = 0
        self.stop_reason: Optional[str] = None
        # Worlds thread one shared Telemetry through every driver; a
        # private (tracing-off) instance keeps standalone drivers working.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        # Ambient trace context captured at SetTimer time, consumed when
        # the timer fires; only populated while tracing is enabled.
        self._timer_ctx: dict[str, Optional[tuple[int, int]]] = {}
        # Per-driver mtype -> Counter caches so the per-message metric
        # cost is one dict hit, not a registry key build.
        self._sent_counters: dict[str, Counter] = {}
        self._recv_counters: dict[str, Counter] = {}
        component.bind_runtime(_DriverRuntime(self, contact, host_name))
        component.bind_telemetry(self.telemetry)

    # -- what a plane supplies ------------------------------------------------
    def now(self) -> float:
        """The plane's clock, in seconds."""
        raise NotImplementedError

    def _resolve(self, dst: str) -> Any:
        """The transport's handle for contact ``dst``, or ``None`` after
        metering the drop when ``dst`` is not an address at all."""
        raise NotImplementedError

    def _transmit(self, route: Any, eff: Send) -> None:
        """Hand ``eff.message`` to the transport; never raises for an
        unreachable peer (§2.1: failure is inferred from missing replies)."""
        raise NotImplementedError

    def _rng_for(self, purpose: str) -> Any:
        """A ``random()``-bearing source for ``purpose`` (``"retry"``
        jitter, the ``"component"``'s own draws)."""
        raise NotImplementedError

    def _host_speed(self) -> float:
        """Deliverable ops/second the component may budget against."""
        raise NotImplementedError

    # -- effect application ---------------------------------------------------
    def _apply(self, effects: list[Effect], now: float) -> None:
        tracer = self.telemetry.tracer
        for eff in effects:
            if isinstance(eff, Send):
                route = self._resolve(eff.dst)
                if route is None:
                    # A contact some peer made up (hostile registration) is
                    # a lost message — a metered drop, never a crash of the
                    # run, and never tracked: retransmitting a frame that
                    # cannot leave recovers nothing the component's own
                    # time-outs do not.
                    continue
                message = eff.message
                if eff.retry is not None:
                    pending = self._reliable().track(eff, now)
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
                            parent=parent, start=now, mtype=message.mtype)
                        if eff.label:
                            span.args["label"] = eff.label
                        if message.trace is None:
                            message.trace = (span.trace_id, span.span_id)
                        pending.span = span
                elif tracer.enabled and message.trace is None:
                    span = tracer.instant(
                        f"send {message.mtype}", now,
                        component=self.component.name,
                        parent=tracer.current_ctx(), mtype=message.mtype)
                    message.trace = (span.trace_id, span.span_id)
                counter = self._sent_counters.get(message.mtype)
                if counter is None:
                    counter = self._sent_counters[message.mtype] = (
                        self.telemetry.metrics.counter("msg.sent",
                                                       mtype=message.mtype))
                counter.inc()
                self._transmit(route, eff)
            elif isinstance(eff, SetTimer):
                self._timers[eff.key] = now + eff.delay
                if tracer.enabled:
                    self._timer_ctx[eff.key] = tracer.current_ctx()
            elif isinstance(eff, CancelTimer):
                self._timers.pop(eff.key, None)
                self._timer_ctx.pop(eff.key, None)
            elif isinstance(eff, LogLine):
                if self.log_sink is not None:
                    self.log_sink(now, self.component.name, eff.level, eff.text)
            elif isinstance(eff, Stop):
                self._stopped = True
                self.stop_reason = eff.reason
            else:
                raise TypeError(f"unknown effect {eff!r}")

    def _invoke(self, span, outcome: str, now: float, hook: Callable,
                *args) -> None:
        """Call ``hook(*args, now)`` and apply what it returns; ``span`` —
        ``None`` when tracing is off — is the ambient span while it runs
        and is finished with ``outcome``."""
        tracer = self.telemetry.tracer
        if span is not None:
            tracer.current = span
        try:
            self._apply(hook(*args, now), now)
        finally:
            if span is not None:
                tracer.finish(span, self.now(), outcome)
                tracer.current = None

    def _start_component(self, now: float) -> None:
        """``on_start`` under a ``start`` span, the root of whatever the
        component sends or arms before its first message."""
        tracer = self.telemetry.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(f"start {self.component.name}",
                                component=self.component.name, start=now)
        self._invoke(span, "ok", now, self.component.on_start)

    # -- one arrived message --------------------------------------------------
    def _dispatch(self, message: Message, now: float, timing=None) -> None:
        """Hand one decoded message to the component. ``timing``, when
        given, receives ``record_handler(component, mtype, wall_seconds)``
        for the handler call alone."""
        tracer = self.telemetry.tracer
        if self.tracker is not None:
            resolved = self.tracker.resolve(message.reply_to, now)
            if resolved is not None and resolved.span is not None:
                tracer.finish(resolved.span, now, "ok")
        counter = self._recv_counters.get(message.mtype)
        if counter is None:
            counter = self._recv_counters[message.mtype] = (
                self.telemetry.metrics.counter("msg.recv",
                                               mtype=message.mtype))
        counter.inc()
        span = None
        if tracer.enabled:
            span = tracer.begin(f"recv {message.mtype}",
                                component=self.component.name,
                                parent=message.trace,
                                start=now, mtype=message.mtype)
            tracer.current = span
        outcome = "ok"
        t0 = _perf_counter() if timing is not None else 0.0
        try:
            effects = self.component.on_message(message, now)
        except Exception as exc:  # noqa: BLE001 — robustness boundary
            # A malformed or hostile message must never take a
            # server down (§2.3 robustness): drop it, log, go on.
            self.handler_errors += 1
            outcome = "error"
            if self.log_sink is not None:
                self.log_sink(now, self.component.name, "error",
                              f"dropped {message.mtype}: {exc!r}")
            effects = []
        if timing is not None:
            timing.record_handler(self.component.name, message.mtype,
                                  _perf_counter() - t0)
        try:
            self._apply(effects, now)
        finally:
            if span is not None:
                tracer.finish(span, self.now(), outcome)
                tracer.current = None

    # -- reliable sends and timers --------------------------------------------
    def _reliable(self) -> ReliableSendTracker:
        if self.tracker is None:
            rng = self._rng_for("retry")
            self.tracker = ReliableSendTracker(
                self.timeout_policy, lambda: float(rng.random()),
                metrics=self.telemetry.metrics)
        return self.tracker

    def _next_deadline(self) -> Optional[float]:
        """Earliest armed timer or reliable-send deadline, if any."""
        deadline = min(self._timers.values()) if self._timers else None
        if self.tracker is not None:
            retry_deadline = self.tracker.next_deadline()
            if retry_deadline is not None and (
                deadline is None or retry_deadline < deadline
            ):
                deadline = retry_deadline
        return deadline

    def _service_reliable(self, now: float) -> None:
        tracer = self.telemetry.tracer
        for action, pending in self.tracker.due(now):
            if self._stopped:
                return
            eff = pending.eff
            message = eff.message
            parent = None
            if tracer.enabled:
                parent = (pending.span.ctx if pending.span is not None
                          else message.trace)
            if action == "resend":
                if tracer.enabled:
                    tracer.instant(
                        f"retransmit {message.mtype}", now,
                        component=self.component.name, parent=parent,
                        outcome="retransmit", mtype=message.mtype,
                        args={"attempt": pending.attempt})
                # Tracked sends resolved once already, so this is a route.
                self._transmit(self._resolve(eff.dst), eff)
            else:  # give_up — the component decides how to recover.
                span = None
                if tracer.enabled:
                    if pending.span is not None:
                        tracer.finish(pending.span, now, "gave-up")
                    span = tracer.begin(
                        f"send-failed {eff.label or message.mtype}",
                        component=self.component.name, parent=parent,
                        start=now, mtype=message.mtype)
                self._invoke(span, "gave-up", now,
                             self.component.on_send_failed, eff)

    def _fire_due(self, now: float) -> None:
        """Service every reliable-send deadline and timer due at ``now``."""
        if self.tracker is not None and len(self.tracker):
            self._service_reliable(now)
        timers = self._timers
        tracer = self.telemetry.tracer
        while not self._stopped:
            due = [k for k, t in timers.items() if t <= now]
            if not due:
                return
            # Deterministic order for same-deadline timers.
            key = min(due, key=lambda k: (timers[k], k))
            del timers[key]
            ctx = self._timer_ctx.pop(key, None)
            span = None
            if tracer.enabled:
                # The timer's causal parent is whatever handler armed it.
                span = tracer.begin(f"timer {key}",
                                    component=self.component.name,
                                    parent=ctx, start=now)
            self._invoke(span, "ok", now, self.component.on_timer, key)

"""Stack-wide retry/timeout/backoff policies (§2.2 applied uniformly).

The paper credits *dynamic time-out discovery* — forecast the response
time of each tagged program event, scale it by a safety multiplier — for
much of EveryWare's stability, and every SC98 service coped with loss by
retransmitting until an acknowledgement arrived. Before this module each
component re-implemented that recovery ad hoc (bare ``SetTimer`` retry
loops in the task farm, Gossip agent, Ramsey client). Now a
:class:`~repro.core.component.Send` effect may carry a
:class:`RetryPolicy`, and the *driver* (``SimDriver`` / ``NetDriver``)
owns the retransmission machinery:

* the per-attempt reply deadline comes from a :class:`TimeoutPolicy`
  (static, or forecast-driven through a
  :class:`~repro.core.forecasting.benchmarking.ForecastRegistry`);
* failed attempts back off exponentially with jitter drawn from the
  driver's deterministic RNG stream;
* when the policy gives up, the component hears about it exactly once
  through :meth:`Component.on_send_failed` and decides what to do
  (rotate to another server, requeue, log).

Both drivers share :class:`ReliableSendTracker`, the sans-IO bookkeeping
core: it never touches sockets or simulated mailboxes, it only tracks
deadlines and tells the driver *resend* or *give up*.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Callable, Optional, Union

from .forecasting.benchmarking import ForecastRegistry, event_tag
from .telemetry import Counter, Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (component->policy)
    from .component import Send

__all__ = ["TimeoutPolicy", "RetryPolicy", "ReliableSendTracker", "PendingSend"]


@dataclass(frozen=True)
class TimeoutPolicy:
    """How long to wait for a reply to a tagged request.

    Two flavors, matching ablation A1:

    * :meth:`static` — a fixed value, the pre-EveryWare default;
    * :meth:`forecast` — the paper's dynamic time-out discovery:
      ``forecast(tag) x multiplier`` clamped to ``[floor, ceiling]``,
      falling back to ``default`` before any history exists.

    The policy is immutable; the mutable forecast history lives in the
    attached :class:`ForecastRegistry` (shared freely between policies).
    """

    default: float = 10.0
    multiplier: float = 4.0
    floor: float = 0.5
    ceiling: float = 120.0
    registry: Optional[ForecastRegistry] = None

    @classmethod
    def static(cls, value: float) -> "TimeoutPolicy":
        """A fixed time-out, regardless of history."""
        return cls(default=float(value), registry=None)

    @classmethod
    def forecast(
        cls,
        registry: Optional[ForecastRegistry] = None,
        multiplier: float = 4.0,
        default: float = 10.0,
        floor: float = 0.5,
        ceiling: float = 120.0,
    ) -> "TimeoutPolicy":
        """Forecast-driven time-outs over ``registry`` (fresh if omitted)."""
        return cls(
            default=default,
            multiplier=multiplier,
            floor=floor,
            ceiling=ceiling,
            registry=registry if registry is not None else ForecastRegistry(),
        )

    @property
    def dynamic(self) -> bool:
        return self.registry is not None

    def timeout_for(self, tag: Optional[str] = None) -> float:
        """The current time-out for ``tag`` (the static value when no
        registry is attached or no tag is given)."""
        if self.registry is None or tag is None:
            return self.default
        return self.registry.timeout(
            tag,
            multiplier=self.multiplier,
            default=self.default,
            floor=self.floor,
            ceiling=self.ceiling,
        )

    def observe(self, tag: str, value: float) -> None:
        """Feed one measured response time into the forecast history
        (no-op for static policies)."""
        if self.registry is not None:
            self.registry.record(tag, value)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmission with exponential backoff and jitter.

    ``interval(attempt, timeout, rand)`` is how long to wait for attempt
    number ``attempt`` (1-based): the reply time-out scaled by
    ``backoff**(attempt-1)``, clamped to ``max_interval``, then jittered
    by ±``jitter`` using ``rand`` drawn from the driver's deterministic
    stream. After ``max_attempts`` unanswered attempts the driver stops
    retransmitting and delivers the give-up to the component.
    """

    max_attempts: int = 4
    backoff: float = 2.0
    jitter: float = 0.25
    max_interval: float = 120.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def should_retry(self, attempt: int) -> bool:
        """May another attempt follow attempt number ``attempt``?"""
        return attempt < self.max_attempts

    def interval(self, attempt: int, timeout: float, rand: float = 0.5) -> float:
        """Wait before declaring attempt ``attempt`` (1-based) lost."""
        base = min(timeout * self.backoff ** (attempt - 1), self.max_interval)
        if self.jitter > 0.0:
            base *= 1.0 + self.jitter * (2.0 * rand - 1.0)
        return max(base, 0.0)


class PendingSend:
    """One reliable send awaiting its correlated reply.

    ``span`` is the tracing driver's open "call" span for the request
    (``None`` when tracing is disabled): retransmits attach to it as
    children and the driver closes it on resolve/give-up.
    """

    __slots__ = ("eff", "tag", "attempt", "deadline", "last_sent", "span")

    def __init__(self, eff: "Send", tag: str, now: float) -> None:
        self.eff = eff
        self.tag = tag
        self.attempt = 1
        self.deadline = 0.0
        self.last_sent = now
        self.span = None


#: Kinds of :class:`Deadlines` entry. A reliable send sorts before a
#: timer due at the same instant only inside the heap; the driver services
#: every due send before any timer regardless.
SEND, TIMER = 0, 1


class Deadlines:
    """Everything one driver waits for, in one heap.

    Component timers (by key) and reliable-send deadlines (by ``req_id``)
    are ``(at, kind, key)`` entries of :attr:`heap`. An entry is live while
    its kind's table maps its key to that very tuple; re-arming or
    disarming leaves the old tuple in the heap as a stale entry, dropped
    when it reaches the top, and the heap is rebuilt from the tables when
    stale entries outnumber live ones. The top entry is always live, so
    "is anything due?" and "when is the next deadline?" read ``heap[0]``.
    Live entries never tie (a key is armed once per kind), so the order
    they leave the heap in does not depend on how it was built.
    """

    __slots__ = ("heap", "sends", "timers")

    def __init__(self) -> None:
        self.heap: list[tuple] = []
        self.sends: dict[int, tuple] = {}
        self.timers: dict[str, tuple] = {}

    def arm(self, kind: int, key, at: float) -> None:
        """(Re)arm ``key`` at ``at``; an unchanged deadline keeps its entry."""
        table = self.timers if kind else self.sends
        old = table.get(key)
        if old is not None and old[0] == at:
            return
        entry = table[key] = (at, kind, key)
        heap = self.heap
        heappush(heap, entry)
        if heap[0] is old:
            self._settle()
        elif len(heap) > 64 and len(heap) > 2 * (len(self.sends)
                                                 + len(self.timers)):
            heap[:] = [*self.sends.values(), *self.timers.values()]
            heapify(heap)

    def disarm(self, kind: int, key) -> None:
        entry = (self.timers if kind else self.sends).pop(key, None)
        if entry is not None and self.heap[0] is entry:
            self._settle()

    def pop_timer(self, now: float) -> Optional[tuple]:
        """Disarm and return the earliest timer entry due at ``now``, if
        any. Due reliable sends it passes stay armed: the driver services
        those as one batch (see :meth:`ReliableSendTracker.due`)."""
        heap, sends, timers = self.heap, self.sends, self.timers
        found = held = None
        while heap and heap[0][0] <= now:
            entry = heappop(heap)
            if not entry[1]:
                if sends.get(entry[2]) is entry:
                    held = (held or []) + [entry]
            elif timers.get(entry[2]) is entry:
                del timers[entry[2]]
                found = entry
                break
        for entry in held or ():
            heappush(heap, entry)
        if heap:
            top = heap[0]
            if (timers if top[1] else sends).get(top[2]) is not top:
                self._settle()
        return found

    def clear(self) -> None:
        self.heap.clear()
        self.sends.clear()
        self.timers.clear()

    def _settle(self) -> None:
        """Drop stale entries from the top."""
        heap, sends, timers = self.heap, self.sends, self.timers
        while heap:
            top = heap[0]
            if (timers if top[1] else sends).get(top[2]) is top:
                return
            heappop(heap)


class ReliableSendTracker:
    """Driver-side bookkeeping for ``Send`` effects carrying a policy.

    The driver calls :meth:`track` when it transmits a reliable send,
    :meth:`resolve` when any message with a matching ``reply_to``
    arrives, and :meth:`due` when its :class:`Deadlines` say something is
    due; :meth:`due` hands back ``("resend", pending)`` /
    ``("give_up", pending)`` actions and the driver does the I/O. Every
    outstanding send's deadline is an entry of ``deadlines`` (the
    driver's, or a private one for a standalone tracker).
    """

    def __init__(
        self,
        timeout_policy: TimeoutPolicy,
        rand: Callable[[], float],
        metrics: Optional["MetricsRegistry"] = None,
        deadlines: Optional[Deadlines] = None,
    ) -> None:
        self.timeout_policy = timeout_policy
        self._rand = rand
        self._pending: dict[int, PendingSend] = {}
        self.deadlines = deadlines if deadlines is not None else Deadlines()
        # Correlation is per sender (replies come back to the driver that
        # issued the request), so req_ids only need to be unique within
        # one tracker. A per-instance counter — unlike the process-wide
        # ``fresh_req_id`` used by the real TCP transport — keeps wire
        # bytes, and hence simulated transfer times, identical across
        # repeated same-seed runs in one process.
        self._next_req = itertools.count(1)
        self.tracked = 0
        self.retries = 0
        self.resolved = 0
        self.give_ups = 0
        #: Optional world metrics registry: mirrors the counters above
        #: onto the scrapeable surface and records forecast error.
        self.metrics = metrics
        # Registry handles, each looked up on its first use: a metric
        # that never moved stays unregistered.
        self._counters: dict[str, Counter] = {}
        self._abs_error: Optional[Histogram] = None

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = self.metrics.counter(name)
            counter.value += 1

    def __len__(self) -> int:
        return len(self._pending)

    def track(self, eff: "Send", now: float) -> PendingSend:
        """Start tracking a reliable send (assigns a ``req_id`` so the
        reply can be correlated; the caller transmits the message).
        Returns the new :class:`PendingSend` so a tracing driver can
        attach its call span."""
        message = eff.message
        if message.req_id is None:
            message.req_id = next(self._next_req)
        pending = PendingSend(eff, event_tag(eff.dst, message.mtype), now)
        pending.deadline = now + self._interval(pending)
        self._pending[message.req_id] = pending
        self.deadlines.arm(SEND, message.req_id, pending.deadline)
        self.tracked += 1
        self._count("reliable.tracked")
        return pending

    def _interval(self, pending: PendingSend) -> float:
        timeout: Union[TimeoutPolicy, float, None] = pending.eff.timeout
        if timeout is None:
            base = self.timeout_policy.timeout_for(pending.tag)
        elif isinstance(timeout, TimeoutPolicy):
            base = timeout.timeout_for(pending.tag)
        else:
            base = float(timeout)
        assert pending.eff.retry is not None
        return pending.eff.retry.interval(pending.attempt, base, float(self._rand()))

    def resolve(self, reply_to: Optional[int], now: float) -> Optional[PendingSend]:
        """A reply correlated to ``reply_to`` arrived; stop retrying and
        feed the measured response time back into the timeout policy."""
        if reply_to is None or not self._pending:
            return None
        pending = self._pending.pop(reply_to, None)
        if pending is None:
            return None
        self.deadlines.disarm(SEND, reply_to)
        self.resolved += 1
        rtt = max(now - pending.last_sent, 0.0)
        self._count("reliable.resolved")
        if self.metrics is not None:
            # Forecast error: compare the measured response time against
            # what the dynamic-benchmark history predicted *before* this
            # observation is folded in (§2.2 time-out discovery quality).
            registry = self.timeout_policy.registry
            if registry is not None:
                fc = registry.forecast(pending.tag)
                if fc is not None:
                    if self._abs_error is None:
                        self._abs_error = self.metrics.histogram(
                            "forecast.abs_error")
                    self._abs_error.observe(abs(rtt - fc.value))
        self.timeout_policy.observe(pending.tag, rtt)
        return pending

    def due(self, now: float) -> list[tuple[str, PendingSend]]:
        """Expired attempts, in deterministic (req_id) order."""
        actions: list[tuple[str, PendingSend]] = []
        pending_by_id = self._pending
        for req_id in sorted(r for r, p in pending_by_id.items()
                             if p.deadline <= now):
            pending = pending_by_id[req_id]
            assert pending.eff.retry is not None
            if pending.eff.retry.should_retry(pending.attempt):
                pending.attempt += 1
                pending.last_sent = now
                pending.deadline = now + self._interval(pending)
                self.deadlines.arm(SEND, req_id, pending.deadline)
                self.retries += 1
                self._count("reliable.retries")
                actions.append(("resend", pending))
            else:
                del pending_by_id[req_id]
                self.deadlines.disarm(SEND, req_id)
                self.give_ups += 1
                self._count("reliable.give_ups")
                actions.append(("give_up", pending))
        return actions

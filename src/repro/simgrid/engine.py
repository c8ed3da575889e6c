"""Discrete-event simulation engine.

This is the substrate on which the SC98-scale EveryWare experiments run.
It is a small, deterministic, generator-coroutine event simulator in the
style of SimPy: simulated processes are Python generators that ``yield``
events (timeouts, other processes, store gets, conditions) and are resumed
when those events trigger.

Determinism guarantees
----------------------
Events scheduled for the same simulated time are processed in FIFO order of
scheduling (a monotonically increasing sequence number breaks ties), so a
simulation driven by a seeded RNG replays identically.

Performance notes
-----------------
Every experiment in this reproduction is bounded by this module's event
loop, so the hot paths are deliberately low-level (see DESIGN.md §6):

* every event class declares ``__slots__`` (no per-event ``__dict__``);
* :class:`Timeout` — the dominant event type by far — schedules itself
  inline instead of going through the generic :meth:`Environment.schedule`
  state checks (a fresh timeout is pending by construction);
* :meth:`Process._resume` never scans callback lists; the rare
  ``interrupt()`` path detaches the process from its old target instead,
  so the per-resume cost is a couple of attribute stores;
* :meth:`Environment.run` inlines the event-pop loop with ``heappop`` and
  the queue bound to locals, and skips the deadline comparison entirely
  when no ``until=<time>`` was given.

None of this changes observable scheduling order: same seeds produce
byte-identical simulation results.

Example
-------
>>> env = Environment()
>>> def proc(env):
...     yield env.timeout(5)
...     return env.now
>>> p = env.process(proc(env))
>>> env.run()
>>> p.value
5
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
]

#: Scheduling priorities: lower value is processed first at equal times.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

#: Queue entries are ``(time, tag, event)`` 3-tuples where
#: ``tag = (priority - 1) * _PRIORITY_STRIDE + seq`` — priority dominates
#: the monotonically increasing sequence number, exactly as the former
#: ``(time, priority, seq, event)`` 4-tuples sorted, with one less tuple
#: element to build and compare per event. PRIORITY_NORMAL (the common
#: case) lands on ``tag = seq``, a machine-word int with no bignum
#: arithmetic; PRIORITY_URGENT biases by ``-_PRIORITY_STRIDE`` so every
#: urgent event sorts before every normal one at the same time.
_PRIORITY_STRIDE = 1 << 62

#: Tag of the run(until=<time>) deadline sentinel: sorts before any real
#: event at the same time, urgent included (seq >= 1 makes every real tag
#: greater than -_PRIORITY_STRIDE - 1 > this).
_DEADLINE_TAG = -(1 << 63)

_new_timeout = object.__new__  # allocation helper for the timeout fast path


class _Deadline:
    """Queue sentinel for ``run(until=<time>)``.

    Popping the sentinel ends the run: it sorts *before* every real event
    scheduled at the deadline (negative tag), so events at exactly
    ``stop_at`` are not processed — the same semantics as checking
    ``queue[0][0] >= stop_at`` before every pop, without paying for that
    comparison per event. ``callbacks`` is None so the run loop recognizes
    it from the field it already loads. A stale sentinel (left queued when
    a run aborted early) is skipped when eventually popped.
    """

    __slots__ = ("callbacks",)

    def __init__(self) -> None:
        self.callbacks = None

# Event lifecycle states. There is no PROCESSED state value: "callbacks
# have run" is encoded as ``callbacks is None`` (the event loop nulls the
# list out as it pops each event), which the hot paths read anyway — so the
# loop saves one attribute store per event.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the event queue


class SimulationError(Exception):
    """Raised for misuse of the simulation API."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` early."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    ``cause`` carries the value passed to :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class Event:
    """A one-shot occurrence that processes may wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks at the current simulation time.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state: int = _PENDING
        #: Whether a raised failure was handed to a waiter. Unhandled
        #: failures propagate out of Environment.run(). Events that can
        #: only succeed (timeouts, Initialize) never materialize this slot:
        #: it is read exclusively behind a ``not _ok`` check.
        self._defused: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to occur."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception if it failed)."""
        if self._state == _PENDING:
            raise SimulationError("value of a pending event is not available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        env = self.env
        env._seq += 1
        heappush(env._queue,
                 (env._now, (priority - 1) * _PRIORITY_STRIDE + env._seq, self))
        return self

    def fail(self, exc: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event as failed with exception ``exc``."""
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        self._state = _TRIGGERED
        env = self.env
        env._seq += 1
        heappush(env._queue,
                 (env._now, (priority - 1) * _PRIORITY_STRIDE + env._seq, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (chaining)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)

    def __repr__(self) -> str:
        if self.callbacks is None:
            state = "processed"
        elif self._state != _PENDING:
            state = "triggered"
        else:
            state = "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation.

    The constructor schedules inline: a fresh timeout is pending by
    construction, so the generic :meth:`Environment.schedule` state check
    is unnecessary on what is by far the most common event type.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._delay = delay
        self._state = _TRIGGERED
        env._seq += 1
        heappush(env._queue, (env._now + delay, env._seq, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay}>"


class Initialize(Event):
    """Internal: kicks a newly created :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._bound_resume]
        self._value = None
        self._ok = True
        self._state = _TRIGGERED
        env._seq += 1
        heappush(env._queue, (env._now, env._seq - _PRIORITY_STRIDE, self))


class Process(Event):
    """A running simulated process wrapping a generator.

    The process is itself an event that triggers when the generator
    returns (value = return value) or raises (failure).
    """

    __slots__ = ("_generator", "_target", "_bound_resume")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None  # event we are waiting on
        # Bind once: `self._resume` creates a fresh bound-method object on
        # every attribute access, and _resume registers itself as a callback
        # on every wait — reuse one binding instead.
        self._bound_resume = self._resume
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self.env._active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._deliver_interrupt)
        self.env.schedule(event, delay=0, priority=PRIORITY_URGENT)

    def _deliver_interrupt(self, event: Event) -> None:
        """Detach from the interrupted wait, then resume with the failure.

        Doing the (linear) callback-list removal here — on the rare
        interrupt path — is what lets :meth:`_resume` skip detach checks
        entirely on every normal wakeup.
        """
        if self._state != _PENDING:
            return  # the process ended before the interrupt was delivered
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._bound_resume)
            except ValueError:
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the triggered event's outcome."""
        env = self.env
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                env._active_process = None
                self._target = None
                self.succeed(exc.value)
                return
            except BaseException as exc:
                env._active_process = None
                self._target = None
                self.fail(exc)
                return

            if type(next_event) is Timeout or isinstance(next_event, Event):
                callbacks = next_event.callbacks
                if callbacks is None:
                    # Already happened: loop and resume immediately.
                    event = next_event
                    continue
                # Wait for it.
                self._target = next_event
                callbacks.append(self._bound_resume)
                break

            env._active_process = None
            self._target = None
            err = SimulationError(
                f"process yielded a non-event: {next_event!r}"
            )
            self.fail(err)
            return
        env._active_process = None


class Condition(Event):
    """Waits on several events; triggers when ``evaluate`` is satisfied.

    The value of a condition is a dict mapping each *triggered* constituent
    event to its value, in trigger order.

    Empty conditions are resolved at construction time: ``evaluate`` is
    consulted once with ``(events=[], count=0)`` and, if satisfied, the
    condition succeeds immediately with ``{}``. Both built-in evaluators
    accept the empty set — ``AllOf([])`` is vacuously satisfied and
    ``AnyOf([])`` triggers immediately rather than deadlocking.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        for e in self._events:
            if e.env is not env:
                raise SimulationError("events from different environments")
        if not self._events:
            # No constituents: settle now if the evaluator accepts the
            # empty set (both built-ins do), else stay pending forever.
            if self._evaluate(self._events, 0):
                self.succeed({})
            return
        for e in self._events:
            if e.callbacks is None:
                self._check(e)
            else:
                e.callbacks.append(self._check)
        # Handle the case where enough events were already processed.
        if self._state == _PENDING and self._evaluate(self._events, self._count):
            self.succeed(self._collect())

    def _collect(self) -> dict:
        return {e: e._value for e in self._events if e.callbacks is None and e._ok}

    def _check(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect())

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        return count > 0 or not events

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        return count >= len(events)


class AnyOf(Condition):
    """Triggers when any constituent event triggers (immediately if empty)."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)


class AllOf(Condition):
    """Triggers when all constituent events have triggered (vacuously true
    for an empty set)."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class Environment:
    """Execution environment: clock, event queue, and process management."""

    __slots__ = ("_now", "_queue", "_seq", "_active_process", "_free_timeouts",
                 "profiler", "drain_hook")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: Dead Timeout shells recycled by run(); see timeout(). Needs no
        #: size cap: a shell is only parked here after being popped off the
        #: queue, so the list never outgrows the peak number of timeouts
        #: that were ever simultaneously scheduled.
        self._free_timeouts: list[Timeout] = []
        #: Optional :class:`repro.simgrid.profile.EngineProfiler`. ``None``
        #: (the default) keeps run() on the inlined fast loops — the only
        #: cost of the feature when disabled is this one attribute check at
        #: run() entry plus one per driver-handled message.
        self.profiler = None
        #: Optional zero-arg callable invoked between events (after each
        #: event's callbacks). Used by the compute plane to drain pool
        #: completions and refresh queue-depth gauges without the lane
        #: owning the run loop. ``None`` (the default) keeps run() on the
        #: inlined fast loops — one attribute check at run() entry.
        self.drain_hook = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event construction ------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Inlined twin of Timeout.__init__ (kept in sync): building the
        # dominant event type through type.__call__ -> __init__ costs an
        # extra Python frame per event, which this factory skips.
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        free = self._free_timeouts
        if free:
            # Reuse a dead shell (and its empty callbacks list) that run()
            # proved unreachable. Recycled shells are known to hold
            # env=self, _ok=True, _state=_TRIGGERED and _value=None (only
            # successfully processed timeouts are recycled, and the
            # recycler clears _value), so only the changed fields need
            # storing.
            t = free.pop()
            t._delay = delay
            if value is not None:
                t._value = value
        else:
            t = _new_timeout(Timeout)
            t.env = self
            t.callbacks = []
            t._value = value
            t._ok = True
            t._delay = delay
            t._state = _TRIGGERED
        seq = self._seq + 1
        self._seq = seq
        heappush(self._queue, (self._now + delay, seq, t))
        return t

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling & execution ---------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Place a triggered event on the queue ``delay`` seconds from now."""
        if event._state != _PENDING:
            raise SimulationError(f"{event!r} already scheduled")
        event._state = _TRIGGERED
        self._seq += 1
        heappush(self._queue,
                 (self._now + delay,
                  (priority - 1) * _PRIORITY_STRIDE + self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("no more events")
        self._now, _tag, event = heappop(self._queue)
        callbacks = event.callbacks
        event.callbacks = None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            # An unhandled failure: surface it to the caller of run().
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue empties, time ``until`` passes, or the
        event ``until`` triggers (returning its value)."""
        if self.profiler is not None or self.drain_hook is not None:
            return self._run_observed(until)
        stop_at = None
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:  # already processed
                return stop_event._value

            def _stop(event: Event) -> None:
                raise StopSimulation(event._value)

            stop_event.callbacks.append(_stop)
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"until={stop_at} is in the past (now={self._now})"
                )
        # The loops below inline step() with `queue` and `heappop` bound to
        # locals. A deadline is implemented as a queue sentinel rather than
        # a per-event `queue[0][0] >= stop_at` comparison; the sentinel's
        # negative tag sorts it before every real event scheduled at
        # exactly `stop_at`, preserving the seed semantics (events at the
        # deadline are not processed). Identical event ordering either way.
        # After an event's callbacks have run, a refcount of exactly 2
        # (the loop local + getrefcount's argument) proves no process,
        # condition, or user variable can ever reach the event again; dead
        # Timeout shells and their callback lists are recycled through
        # timeout() instead of round-tripping the allocator. Purely an
        # allocation optimization: scheduling order is untouched.
        queue = self._queue
        pop = heappop
        refs = getrefcount
        free = self._free_timeouts
        timeout_cls = Timeout
        if stop_at is None:
            try:
                while queue:
                    self._now, _tag, event = pop(queue)
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:  # the overwhelmingly common case
                        callbacks[0](event)
                    else:
                        for cb in callbacks:
                            cb(event)
                    # A Timeout can never fail (it is born triggered, so
                    # fail() rejects it), which makes the failure check and
                    # the recycle check mutually exclusive branches.
                    if type(event) is timeout_cls:
                        if refs(event) == 2:
                            callbacks.clear()
                            event.callbacks = callbacks
                            event._value = None
                            free.append(event)
                    elif not event._ok and not event._defused:
                        raise event._value
            except StopSimulation as stop:
                return stop.value
            if stop_event is not None and stop_event.callbacks is not None:
                raise SimulationError("run() until-event was never triggered")
            return None
        sentinel_entry = (stop_at, _DEADLINE_TAG, _Deadline())
        heappush(queue, sentinel_entry)
        try:
            while True:
                self._now, _tag, event = pop(queue)
                callbacks = event.callbacks
                if callbacks is None:
                    # The deadline sentinel: _now is already stop_at.
                    return None
                event.callbacks = None
                if len(callbacks) == 1:  # the overwhelmingly common case
                    callbacks[0](event)
                else:
                    for cb in callbacks:
                        cb(event)
                if type(event) is timeout_cls:
                    if refs(event) == 2:
                        callbacks.clear()
                        event.callbacks = callbacks
                        event._value = None
                        free.append(event)
                elif not event._ok and not event._defused:
                    raise event._value
        except BaseException:
            # Crash path (unhandled event failure, KeyboardInterrupt, ...):
            # withdraw the sentinel so the queue is left clean for any
            # subsequent run()/step() calls.
            try:
                queue.remove(sentinel_entry)
                heapify(queue)
            except ValueError:
                pass
            raise

    def _run_observed(self, until: Optional[float | Event] = None) -> Any:
        """run() twin taken when a profiler, a drain hook, or both are
        attached: identical scheduling semantics. The profiler samples
        per-event-type counts and callback wall time; the hook is called
        between events so an external completion source (the compute
        plane's worker pool) is harvested at every event boundary. Skips
        the Timeout-recycling micro-optimization — observed runs measure
        (and the hook may retain event references), fast runs race."""
        from time import perf_counter

        profiler = self.profiler
        hook = self.drain_hook
        stop_at = None
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:  # already processed
                return stop_event._value

            def _stop(event: Event) -> None:
                raise StopSimulation(event._value)

            stop_event.callbacks.append(_stop)
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"until={stop_at} is in the past (now={self._now})"
                )
        queue = self._queue
        sentinel_entry = None
        if stop_at is not None:
            sentinel_entry = (stop_at, _DEADLINE_TAG, _Deadline())
            heappush(queue, sentinel_entry)
        by_type = None if profiler is None else profiler.events_by_type
        run_t0 = perf_counter()
        try:
            while queue:
                self._now, _tag, event = heappop(queue)
                callbacks = event.callbacks
                if callbacks is None:
                    if sentinel_entry is not None:
                        sentinel_entry = None  # popped: nothing to withdraw
                        return None  # the deadline sentinel ends the run
                    continue  # stale sentinel from an aborted earlier run
                event.callbacks = None
                if profiler is None:
                    for cb in callbacks:
                        cb(event)
                else:
                    tname = type(event).__name__
                    by_type[tname] = by_type.get(tname, 0) + 1
                    profiler.events += 1
                    t0 = perf_counter()
                    for cb in callbacks:
                        cb(event)
                    profiler.callback_time += perf_counter() - t0
                if not event._ok and not event._defused:
                    raise event._value
                if hook is not None:
                    hook()
        except StopSimulation as stop:
            return stop.value
        finally:
            if profiler is not None:
                profiler.run_wall_time += perf_counter() - run_t0
            if sentinel_entry is not None:
                try:
                    queue.remove(sentinel_entry)
                    heapify(queue)
                except ValueError:
                    pass
        if stop_event is not None and stop_event.callbacks is not None:
            raise SimulationError("run() until-event was never triggered")
        return None

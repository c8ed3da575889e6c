"""Discrete-event simulation engine.

This is the substrate on which the SC98-scale EveryWare experiments run.
Its model is the callback entry: a queue item that is a bound method (or
a ``functools.partial`` of one) is called with its entry's tag when it
pops. Every EveryWare component is driven this way (a driver's
deliveries and wake-ups), and so is every other periodic or one-shot
activity of a simulated world: a host's ambient load, the network's
congestion, fault injectors, infrastructure churn and the experiments'
samplers. :meth:`Environment.call` queues such an entry, and
:meth:`Environment.start` begins a loop whose first step is a wait.

:class:`Process` (a simpy-style generator waiting on :class:`Event`
objects), :class:`Initialize` and :class:`Timeout` survive only for the
end-to-end benchmark's ladder, which still drives the engine, a mailbox
and an endpoint with them; nothing in the product starts a process.

Determinism guarantees
----------------------
Entries scheduled for the same simulated time are processed in FIFO order
of scheduling (a monotonically increasing sequence number breaks ties),
urgent entries first, so a simulation driven by a seeded RNG replays
identically.

Performance notes
-----------------
Every experiment in this reproduction is bounded by this module's event
loop, so the hot paths are deliberately low-level (see DESIGN.md §6):

* every event class declares ``__slots__`` (no per-event ``__dict__``);
* :class:`Timeout` schedules itself inline: a fresh timeout is pending
  by construction, so it needs no state check;
* :meth:`Environment.run` inlines the event-pop loop with ``heappop`` and
  the queue bound to locals, and skips the deadline comparison entirely
  when no ``until=<time>`` was given;
* two kinds of queue item are not events and cost the loop one call: an
  *arrival* (see :meth:`Environment.on_arrival`) goes to its handler, and
  a callback entry is called with its entry's tag.

None of this changes observable scheduling order: same seeds produce
byte-identical simulation results.

Example
-------
>>> env = Environment()
>>> class Ticker:
...     ticks = 0
...     def tick(self, _tag):
...         self.ticks += 1
...         env.call(self.tick, 5.0)
>>> ticker = Ticker()
>>> env.call(ticker.tick, urgent=True)
>>> env.run(until=12)
>>> ticker.ticks
3
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from sys import getrefcount
from types import MethodType
from typing import Any, Callable, Generator, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
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
    it from the field it already loads. A run that ends early (an
    exception, an until-event) withdraws its sentinel.
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
    construction, so it needs no state check.
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
    returns (value = return value) or raises (failure). Only the
    end-to-end benchmark's ladder still starts one (see the module
    docstring).
    """

    __slots__ = ("_generator", "_bound_resume")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # Bind once: `self._resume` creates a fresh bound-method object on
        # every attribute access, and _resume registers itself as a callback
        # on every wait — reuse one binding instead.
        self._bound_resume = self._resume
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with the triggered event's outcome."""
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self.succeed(exc.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if isinstance(next_event, Event):
                callbacks = next_event.callbacks
                if callbacks is None:
                    # Already happened: loop and resume immediately.
                    event = next_event
                    continue
                callbacks.append(self._bound_resume)
                return

            self.fail(SimulationError(
                f"process yielded a non-event: {next_event!r}"))
            return


class Environment:
    """Execution environment: clock, event queue, and process management."""

    __slots__ = ("_now", "_queue", "_seq", "_free_timeouts", "_arrival_kind",
                 "_arrive")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: Dead Timeout shells recycled by run(); see timeout(). Needs no
        #: size cap: a shell is only parked here after being popped off the
        #: queue, so the list never outgrows the peak number of timeouts
        #: that were ever simultaneously scheduled.
        self._free_timeouts: list[Timeout] = []
        self._arrival_kind = self._arrive = None  # see on_arrival()

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- event construction ------------------------------------------------
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

    # -- scheduling & execution ---------------------------------------------
    def call(self, method: Callable[[int], Any], delay: float = 0.0,
             urgent: bool = False) -> None:
        """Queue a callback entry: ``method`` (a bound method, or a
        ``functools.partial`` of one) is called with its entry's tag
        ``delay`` seconds from now, under the sequence number a
        :class:`Timeout` made here would take. An ``urgent`` entry sorts
        ahead of every normal one at its instant: a loop's first step
        (DESIGN §7 rule 1)."""
        seq = self._seq = self._seq + 1
        heappush(self._queue, (self._now + delay,
                               seq - _PRIORITY_STRIDE if urgent else seq,
                               method))

    def start(self, method: Callable[[int], Any], delay: float) -> None:
        """Begin a loop whose first step is a wait: an urgent entry now
        queues ``method`` ``delay`` seconds later, so the wait is numbered
        after everything the current step goes on to queue, the position
        every loop's first step has (DESIGN §7 rule 1)."""
        self.call(partial(self._then, method, delay), urgent=True)

    def _then(self, method: Callable[[int], Any], delay: float,
              _tag: int) -> None:
        self.call(method, delay)

    def on_arrival(self, kind: type, handler: Callable[[Any], None]) -> None:
        """Hand every queue item of class ``kind`` (one per environment) to
        ``handler`` when popped. Its owner pushes ``(time, env._seq + 1,
        item)``, storing the number back, as a :class:`Timeout` would."""
        if self._arrival_kind is not None:
            raise SimulationError("this environment already has arrivals")
        self._arrival_kind, self._arrive = kind, handler

    def _fire(self, tag: int, event: Any) -> None:
        """Process one popped queue item (step()'s body; run() inlines it)."""
        cls = type(event)
        if cls is self._arrival_kind:
            self._arrive(event)
            return
        if cls is MethodType or cls is partial:
            event(tag)
            return
        callbacks = event.callbacks
        event.callbacks = None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            # An unhandled failure: surface it to the caller of run().
            raise event._value

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("no more events")
        self._now, tag, event = heappop(self._queue)
        self._fire(tag, event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue empties, time ``until`` passes, or the
        event ``until`` triggers (returning its value)."""
        stop_event = until if isinstance(until, Event) else None
        if stop_event is not None:
            if stop_event.callbacks is None:  # already processed
                return stop_event._value

            def _stop(event: Event) -> None:
                raise StopSimulation(event._value)

            stop_event.callbacks.append(_stop)
        sentinel = None
        if until is not None and stop_event is None:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"until={stop_at} is in the past (now={self._now})"
                )
            # A queue sentinel, not a per-event `stop_at` comparison (see
            # _Deadline): events at exactly `stop_at` are not processed.
            sentinel = (stop_at, _DEADLINE_TAG, _Deadline())
            heappush(self._queue, sentinel)
        try:
            if self._loop():
                sentinel = None  # popped: nothing to withdraw
        except StopSimulation as stop:
            if sentinel is None:
                return stop.value
            raise
        finally:
            if sentinel is not None:
                try:  # an early end: withdraw it
                    self._queue.remove(sentinel)
                    heapify(self._queue)
                except ValueError:
                    pass
        if stop_event is not None and stop_event.callbacks is not None:
            raise SimulationError("run() until-event was never triggered")
        return None

    def _loop(self) -> bool:
        """step() inlined with hot names bound to locals, until the queue
        empties or the deadline sentinel pops (True). After an event's
        callbacks, a refcount of exactly 2 (the loop local + getrefcount's
        argument) proves nothing can reach it again: dead Timeout shells
        and their callback lists are recycled through timeout(). Purely an
        allocation optimization: scheduling order is untouched."""
        queue = self._queue
        pop = heappop
        refs = getrefcount
        free = self._free_timeouts
        timeout_cls = Timeout
        arrival = self._arrival_kind
        arrive = self._arrive
        method = MethodType
        bound = partial
        while queue:
            self._now, tag, event = pop(queue)
            cls = type(event)
            if cls is arrival:
                arrive(event)
                continue
            if cls is method or cls is bound:
                event(tag)
                continue
            callbacks = event.callbacks
            if callbacks is None:
                return True  # the deadline sentinel: _now is stop_at
            event.callbacks = None
            if len(callbacks) == 1:  # the overwhelmingly common case
                callbacks[0](event)
            else:
                for cb in callbacks:
                    cb(event)
            # A Timeout can never fail (it is born triggered, so fail()
            # rejects it), which makes the failure check and the recycle
            # check mutually exclusive branches.
            if cls is timeout_cls:
                if refs(event) == 2:
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._value = None
                    free.append(event)
            elif not event._ok and not event._defused:
                raise event._value
        return False

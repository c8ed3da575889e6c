"""Compute lanes: where kernel tasks execute.

A :class:`ComputeLane` is the pluggable seam between the simulation's
decision logic and the kernel execution substrate:

* :class:`InlineLane` — today's behavior and the default: tasks run
  synchronously in-process through the reference kernels. Costs one
  ``None`` check when unused.
* :class:`PoolLane` — tasks run on a persistent :class:`KernelPool` of
  forked workers through the vectorized kernels, colorings travel via
  shared memory, and a dead worker degrades to inline execution.

Because both lanes return bit-identical results and op meters, and
simulated time is charged from op counts, which lane ran is invisible
to the simulation — the same seed produces the same counter-examples,
wire bytes, and world metrics either way.

Telemetry is **lane-private**: each lane owns its own
:class:`MetricsRegistry`/:class:`Tracer` (queue depths, per-worker wall
latency, submit→complete spans) rather than writing into the world's
registry, precisely so the world metrics snapshot stays byte-identical
between serial and pooled runs — wall latencies are real time and real
time is nondeterministic.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Protocol

from ..core.telemetry import MetricsRegistry, Tracer
from .kernels import run_task
from .pool import KernelPool

__all__ = ["ComputeLane", "InlineLane", "PoolLane", "make_lane"]


class ComputeLane(Protocol):
    """What the simulation sees of the execution substrate."""

    workers: int

    def run(self, task): ...

    def submit(self, task) -> int: ...

    def collect(self, block: bool = False) -> list[tuple]: ...

    def result(self, ticket: int): ...

    def close(self) -> None: ...


class InlineLane:
    """Synchronous in-process execution — the reference substrate."""

    workers = 0

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(enabled=False)
        self.tasks_run = 0
        self.fallbacks = 0
        self.worker_busy_s: list[float] = []
        self._next_ticket = 0
        self._done: list[tuple] = []

    def run(self, task):
        self.tasks_run += 1
        return run_task(task, vectorized=False)

    def submit(self, task) -> int:
        ticket = self._next_ticket
        self._next_ticket += 1
        self._done.append((ticket, self.run(task)))
        return ticket

    def collect(self, block: bool = False) -> list[tuple]:
        done, self._done = self._done, []
        return done

    def result(self, ticket: int):
        """Take one specific completion, leaving the rest buffered (so
        several components can share the lane without stealing results)."""
        for i, (done_ticket, result) in enumerate(self._done):
            if done_ticket == ticket:
                self._done.pop(i)
                return result
        raise KeyError(f"ticket {ticket} is not pending on this lane")

    def close(self) -> None:
        pass


class PoolLane:
    """Kernel execution on a worker pool, with lane-private telemetry.

    ``clock`` stamps the submit→complete spans (pass the simulation's
    ``env.now`` to get sim-time spans); worker latency histograms always
    use wall time — that is the quantity being measured.
    """

    def __init__(
        self,
        workers: int,
        arena_slots: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
        trace: bool = False,
    ) -> None:
        self.pool = KernelPool(workers, arena_slots=arena_slots)
        self.workers = workers
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(enabled=trace)
        self.clock = clock or time.monotonic
        self.tasks_run = 0
        self._spans: dict[int, tuple] = {}  # ticket -> (span, wall_t0)
        self._buffer: list[tuple] = []  # noted completions awaiting collect
        self._submitted = self.metrics.counter("parallel.submitted")
        self._completed = self.metrics.counter("parallel.completed")
        self._fallback_counter = self.metrics.counter("parallel.fallback")

    @property
    def fallbacks(self) -> int:
        return self.pool.fallbacks

    @property
    def worker_busy_s(self) -> list[float]:
        """Per-worker kernel wall seconds, measured inside each worker."""
        return list(self.pool.worker_busy_s)

    # -- submission/collection --------------------------------------------
    def submit(self, task) -> int:
        ticket = self.pool.submit(task)
        self._submitted.inc()
        span = None
        if self.tracer.enabled:
            span = self.tracer.begin("parallel.task", component="lane",
                                     start=self.clock())
            span.args["ticket"] = ticket
        self._spans[ticket] = (span, time.monotonic())
        self._update_depths()
        return ticket

    def collect(self, block: bool = False) -> list[tuple]:
        fresh = self.pool.collect(block=block and not self._buffer)
        self._note_completions(fresh)
        done = self._buffer + fresh
        self._buffer = []
        return done

    def run(self, task):
        """Submit and wait for this task; completions for other tickets
        are buffered (already accounted) for the next ``collect``."""
        return self.result(self.submit(task))

    def result(self, ticket: int):
        """Wait for one specific completion, buffering the rest (so
        several components can share the lane without stealing results)."""
        for i, (done_ticket, result) in enumerate(self._buffer):
            if done_ticket == ticket:
                self._buffer.pop(i)
                return result
        while True:
            batch = self.pool.collect(block=True)
            if not batch:
                raise KeyError(f"ticket {ticket} is not pending on this lane")
            self._note_completions(batch)
            mine = None
            for done_ticket, result in batch:
                if done_ticket == ticket:
                    mine = (result,)
                else:
                    self._buffer.append((done_ticket, result))
            if mine is not None:
                return mine[0]

    def close(self) -> None:
        self.pool.close()

    # -- bookkeeping -------------------------------------------------------
    def _update_depths(self) -> None:
        for wid, depth in enumerate(self.pool.pending_counts()):
            self.metrics.gauge("parallel.queue_depth", worker=wid).set(depth)

    def _note_completions(self, done: list[tuple]) -> None:
        fallbacks = self.pool.fallbacks
        for ticket, _result in done:
            self.tasks_run += 1
            self._completed.inc()
            span, wall_t0 = self._spans.pop(ticket, (None, None))
            if wall_t0 is not None:
                self.metrics.histogram(
                    "parallel.latency_ms",
                ).observe((time.monotonic() - wall_t0) * 1e3)
            if span is not None:
                self.tracer.finish(span, self.clock())
        new_fallbacks = fallbacks - self._fallback_counter.value
        if new_fallbacks > 0:
            self._fallback_counter.inc(new_fallbacks)
        self._update_depths()


def make_lane(
    workers: int = 0,
    arena_slots: Optional[int] = None,
    clock: Optional[Callable[[], float]] = None,
    trace: bool = False,
) -> "ComputeLane":
    """``workers <= 0`` → :class:`InlineLane` (the default substrate),
    otherwise a :class:`PoolLane` with that many forked workers."""
    if workers and workers > 0:
        return PoolLane(workers, arena_slots=arena_slots, clock=clock,
                        trace=trace)
    return InlineLane()

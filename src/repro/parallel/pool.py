"""The compute pool: where every kernel task executes.

``KernelPool(0)`` starts no process: each task runs synchronously in
the caller through the *reference* kernels (``run_task(task,
vectorized=False)``), the serial substrate every simulation uses by
default. ``KernelPool(n)`` forks ``n`` persistent workers that run the
vectorized kernels. Both return identical results and op meters, and
simulated time is charged from op counts, so which substrate ran is
invisible to the simulation.

Transport: one duplex pipe per worker (no feeder threads, no queue
locks), drained with ``multiprocessing.connection.wait`` so the parent
can poll, block, and detect dead workers (EOF) through one mechanism.
A task message is ``(ticket, task)``, pickled whole: a step batch is a
few hundred ints against milliseconds of kernel work, so shipping the
colorings any other way saves nothing measurable (DESIGN §10).

Crash containment: a worker that dies mid-task takes nothing with it —
the parent keeps every in-flight task and re-executes it inline through
the reference kernels. Fallbacks are counted, never silent.
"""

from __future__ import annotations

import os
from multiprocessing import connection, get_context
from time import perf_counter
from typing import Optional

from .kernels import run_task

__all__ = ["KernelPool", "CRASH_TASK"]

#: Test hook: a worker receiving this task hard-exits without replying,
#: simulating a segfault/OOM-kill for the crash-fallback path.
CRASH_TASK = "__crash__"


def _worker_main(conn) -> None:
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        ticket, task = msg
        if task == CRASH_TASK:
            os._exit(1)
        t0 = perf_counter()
        try:
            result = run_task(task, vectorized=True)
            conn.send((ticket, True, result, perf_counter() - t0))
        except Exception as exc:
            try:
                conn.send((ticket, False, repr(exc), perf_counter() - t0))
            except Exception:
                break
    conn.close()


class KernelPool:
    """``workers`` forked processes (none: inline) and crash-safe tickets."""

    def __init__(self, workers: int) -> None:
        if workers < 0:
            raise ValueError("worker count must be >= 0")
        self.workers = workers
        #: Tasks a worker pool had to run inline (dead or failing worker).
        self.fallbacks = 0
        #: Cumulative wall seconds each worker spent executing kernels,
        #: measured inside the worker and shipped back with each reply.
        self.worker_busy_s = [0.0] * workers
        self._next_ticket = 0
        self._conns: list = []
        self._procs: list = []
        self._alive: list[bool] = []
        #: Per-worker in-flight tasks: ticket -> task.
        self._pending: list[dict] = []
        self._done: list[tuple] = []
        self._closed = False
        ctx = get_context("fork")
        for _ in range(workers):
            parent_end, child_end = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=_worker_main, args=(child_end,),
                               daemon=True)
            proc.start()
            child_end.close()
            self._conns.append(parent_end)
            self._procs.append(proc)
            self._alive.append(True)
            self._pending.append({})

    # -- submission --------------------------------------------------------
    def submit(self, task) -> int:
        """Queue a task on the least-loaded live worker; returns a ticket.

        With no live workers the task runs inline immediately (reference
        kernels) and its result is buffered for ``collect``/``result``.
        """
        ticket = self._next_ticket
        self._next_ticket += 1
        wid = self._pick_worker()
        if wid is None:
            if self.workers:
                self._fallback(ticket, task)
            else:
                self._run_inline(ticket, task)
            return ticket
        try:
            self._conns[wid].send((ticket, task))
        except (BrokenPipeError, OSError):
            self._reap(wid)
            self._fallback(ticket, task)
            return ticket
        self._pending[wid][ticket] = task
        return ticket

    def _pick_worker(self) -> Optional[int]:
        best = None
        for wid, alive in enumerate(self._alive):
            if not alive:
                continue
            if best is None or len(self._pending[wid]) < len(self._pending[best]):
                best = wid
        return best

    def _run_inline(self, ticket: int, task) -> None:
        result = None if task == CRASH_TASK else run_task(task, vectorized=False)
        self._done.append((ticket, result))

    def _fallback(self, ticket: int, task) -> None:
        """Re-execute (or first-execute) a worker's task inline."""
        self.fallbacks += 1
        self._run_inline(ticket, task)

    def _reap(self, wid: int) -> None:
        """A worker died: fall back every task it still held."""
        self._alive[wid] = False
        try:
            self._conns[wid].close()
        except OSError:
            pass
        held = self._pending[wid]
        self._pending[wid] = {}
        for ticket, task in sorted(held.items()):
            self._fallback(ticket, task)

    # -- collection --------------------------------------------------------
    def collect(self, block: bool = False) -> list[tuple]:
        """Harvest finished tasks as ``(ticket, result)`` pairs.

        ``block=True`` waits until at least one completion is available
        (buffered inline runs count). Results arrive in completion order.
        """
        while True:
            self._poll(timeout=0.05 if block else 0)
            if self._done or not block or not any(self._pending):
                done, self._done = self._done, []
                return done

    def result(self, ticket: int):
        """Wait for one ticket's result; other completions stay buffered
        for ``collect`` (several components can share one pool)."""
        while True:
            for i, (done_ticket, result) in enumerate(self._done):
                if done_ticket == ticket:
                    del self._done[i]
                    return result
            if not any(self._pending):
                raise KeyError(f"ticket {ticket} is not pending")
            self._poll(timeout=0.05)

    def run(self, task):
        """Submit one task and wait for its result."""
        return self.result(self.submit(task))

    def _poll(self, timeout: float) -> None:
        live = [self._conns[w] for w, ok in enumerate(self._alive) if ok]
        if not live:
            return
        for conn in connection.wait(live, timeout=timeout):
            wid = self._conns.index(conn)
            try:
                ticket, ok, payload, elapsed = conn.recv()
            except (EOFError, OSError):
                self._reap(wid)
                continue
            self.worker_busy_s[wid] += elapsed
            task = self._pending[wid].pop(ticket)
            if ok:
                self._done.append((ticket, payload))
            else:
                self._fallback(ticket, task)

    # -- teardown ----------------------------------------------------------
    def close(self) -> None:
        """Stop the workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for wid, conn in enumerate(self._conns):
            if self._alive[wid]:
                try:
                    conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

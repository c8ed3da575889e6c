"""The compute pool: inline at zero workers, ticket routing, crash recovery.

These tests exercise :class:`KernelPool`, the one substrate kernel tasks
run on: its zero-worker inline mode (no process, reference kernels),
the forked workers' ticket routing, worker-crash fallback, and process
cleanup on ``close``.
"""

import multiprocessing

import numpy as np

from repro.parallel import EvalRound, KernelPool, StepBatch, run_task
from repro.parallel.kernels import _NP_MAX_K
from repro.parallel.pool import CRASH_TASK
from repro.ramsey.graphs import Coloring, OpCounter
from repro.ramsey.heuristics import TabuSearch


def _eval_task(k=20, n=4, seed=0, edges=8):
    rng = np.random.default_rng(seed)
    coloring = Coloring.random(k, rng)
    pairs = sorted({(min(u, v), max(u, v)) for u, v in
                    ((int(rng.integers(k)), int(rng.integers(k)))
                     for _ in range(edges * 3)) if u != v})[:edges]
    return EvalRound(k, n, list(coloring.red), pairs)


def _step_task(k=30, n=5, seed=4, steps=15):
    search = TabuSearch(k, n, np.random.default_rng(seed),
                        ops=OpCounter(), candidates=8)
    return StepBatch(search.export_state(), max_steps=steps)


def _children() -> set:
    return {p.pid for p in multiprocessing.active_children()}


def test_inline_lane_matches_direct_run():
    before = _children()
    pool = KernelPool(0)
    eval_task, step_task = _eval_task(), _step_task()
    direct = run_task(eval_task, vectorized=False)
    via_pool = pool.run(eval_task)
    assert (via_pool.best_move, via_pool.best_delta, via_pool.ops) == (
        direct.best_move, direct.best_delta, direct.ops)
    ref = run_task(step_task, vectorized=False)
    stepped = pool.run(step_task)
    assert (stepped.state, stepped.ops, stepped.steps) == (
        ref.state, ref.ops, ref.steps)
    assert _children() == before  # zero workers: no process started
    assert pool.fallbacks == 0 and pool.worker_busy_s == []
    pool.close()


def test_zero_workers_buffer_completions_for_collect():
    pool = KernelPool(0)
    tasks = {pool.submit(_eval_task(seed=s)): _eval_task(seed=s)
             for s in range(3)}
    done = dict(pool.collect())
    assert done == {t: run_task(task) for t, task in tasks.items()}
    assert pool.collect(block=True) == []
    assert pool.fallbacks == 0
    pool.close()


def test_pool_lane_results_bit_identical_to_inline():
    tasks = [_eval_task(seed=s) for s in range(6)]
    tasks.append(_step_task())
    inline = KernelPool(0)
    pool = KernelPool(2)
    try:
        for task in tasks:
            a = inline.run(task)
            b = pool.run(task)
            assert a == b
        assert pool.fallbacks == 0
    finally:
        pool.close()
        inline.close()


def test_result_routes_interleaved_tickets():
    pool = KernelPool(2)
    try:
        t1 = pool.submit(_eval_task(seed=1))
        t2 = pool.submit(_eval_task(seed=2))
        # Ask for them in reverse submit order: the pool must buffer the
        # non-matching completion instead of dropping or misrouting it.
        r2 = pool.result(t2)
        r1 = pool.result(t1)
        assert r1 == run_task(_eval_task(seed=1), vectorized=False)
        assert r2 == run_task(_eval_task(seed=2), vectorized=False)
    finally:
        pool.close()


def test_worker_crash_falls_back_inline():
    pool = KernelPool(2)
    try:
        tasks = {pool.submit(_eval_task(seed=s)): _eval_task(seed=s)
                 for s in range(5)}
        crash_ticket = pool.submit(CRASH_TASK)
        done = {}
        while len(done) < len(tasks) + 1:
            done.update(pool.collect(block=True))
        for ticket, task in tasks.items():
            assert done[ticket] == run_task(task, vectorized=False)
        assert done[crash_ticket] is None
        assert pool.fallbacks >= 1
        # The surviving worker still serves.
        assert pool.run(_eval_task(seed=9)) == run_task(_eval_task(seed=9))
    finally:
        pool.close()


def test_large_k_uses_inline_payload():
    # k beyond one machine word must still round-trip through a worker
    # (the vectorized executor falls back to the reference kernel).
    task = _eval_task(k=_NP_MAX_K + 7, n=4, seed=3)
    pool = KernelPool(1)
    try:
        ticket = pool.submit(task)
        assert pool.collect(block=True) == [
            (ticket, run_task(task, vectorized=False))]
        assert pool.run(task) == run_task(task, vectorized=False)
        assert pool.fallbacks == 0
    finally:
        pool.close()


def test_step_batch_through_pool_writes_state_back():
    task = _step_task()
    ref = run_task(task, vectorized=False)
    pool = KernelPool(1)
    try:
        via_pool = pool.run(task)
        assert via_pool.state == ref.state
        assert via_pool.ops == ref.ops
        assert via_pool.steps == ref.steps
    finally:
        pool.close()


def test_close_twice_leaves_no_child_across_repeated_pools():
    before = _children()
    for _ in range(4):
        pool = KernelPool(2)
        pool.run(_eval_task())
        pool.close()
        pool.close()  # double-close must be safe
    assert _children() == before

"""Kernel tasks: vectorized vs reference parity, op-metering exactness.

The compute plane's determinism contract rests on one invariant: for any
task, ``run_task(task, vectorized=True)`` and
``run_task(task, vectorized=False)`` return byte-for-byte equal results
*including the op meters* (simulated time is charged from op counts, so
a metering drift would silently change simulation outcomes).
"""

import numpy as np
import pytest

from repro.parallel.kernels import (
    _NP_MAX_K,
    EvalRound,
    StepBatch,
    run_task,
)
from repro.ramsey.graphs import Coloring, OpCounter
from repro.ramsey.heuristics import TabuSearch


def _random_coloring(k: int, seed: int) -> Coloring:
    return Coloring.random(k, np.random.default_rng(seed))


def _random_edges(k: int, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < count:
        u = int(rng.integers(k))
        v = int(rng.integers(k - 1))
        if v >= u:
            v += 1
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


@pytest.mark.parametrize("k,n", [(12, 4), (18, 5), (43, 5), (9, 3), (8, 2)])
def test_eval_round_vectorized_matches_reference(k, n):
    coloring = _random_coloring(k, seed=k * 31 + n)
    edges = _random_edges(k, min(16, k), seed=n)
    task = EvalRound(k, n, list(coloring.red), edges)
    ref = run_task(task, vectorized=False)
    vec = run_task(task, vectorized=True)
    assert vec.best_move == ref.best_move
    assert vec.best_delta == ref.best_delta
    assert vec.ops == ref.ops


def test_eval_round_tabu_and_aspiration_filtering():
    k, n = 14, 4
    coloring = _random_coloring(k, seed=5)
    edges = _random_edges(k, 10, seed=6)
    tabu = [True, False] * 5
    task = EvalRound(k, n, list(coloring.red), edges,
                     tabu=tabu, aspiration_below=2)
    ref = run_task(task, vectorized=False)
    vec = run_task(task, vectorized=True)
    assert (vec.best_move, vec.best_delta, vec.ops) == (
        ref.best_move, ref.best_delta, ref.ops)


def test_large_k_falls_back_to_reference():
    # Beyond the vectorized kernels' word width the dispatcher must fall
    # back to the reference path, still bit-identical.
    k, n = _NP_MAX_K + 7, 4
    coloring = _random_coloring(k, seed=2)
    edges = _random_edges(k, 6, seed=3)
    task = EvalRound(k, n, list(coloring.red), edges)
    ref = run_task(task, vectorized=False)
    vec = run_task(task, vectorized=True)
    assert (vec.best_move, vec.best_delta, vec.ops) == (
        ref.best_move, ref.best_delta, ref.ops)


def test_step_batch_matches_serial_step_loop():
    k, n, candidates = 18, 4, 12
    serial = TabuSearch(k, n, np.random.default_rng(11),
                        ops=OpCounter(), candidates=candidates)
    batched = TabuSearch(k, n, np.random.default_rng(11),
                         ops=OpCounter(), candidates=candidates)
    state = batched.export_state()
    ops_at_start = serial.ops.ops  # construction meters the initial recount
    total_ops = 0
    for _ in range(12):
        outcome = run_task(StepBatch(state, max_steps=25), vectorized=True)
        state = outcome.state
        total_ops += outcome.ops
        for _ in range(outcome.steps):
            serial.step()
    resumed = TabuSearch.from_state(state, ops=OpCounter())
    assert resumed.coloring.red == serial.coloring.red
    assert resumed.best_coloring.red == serial.best_coloring.red
    assert resumed.energy == serial.energy
    assert resumed.best_energy == serial.best_energy
    assert resumed.steps == serial.steps
    assert total_ops == serial.ops.ops - ops_at_start
    assert (resumed.rng.bit_generator.state["state"]
            == serial.rng.bit_generator.state["state"])


def test_step_batch_respects_ops_budget():
    search = TabuSearch(16, 4, np.random.default_rng(0),
                        ops=OpCounter(), candidates=8)
    state = search.export_state()
    outcome = run_task(StepBatch(state, max_steps=10_000, ops_budget=5_000),
                       vectorized=True)
    # The budget is checked between steps (mirroring RealEngine.advance),
    # so the batch may overshoot by at most one step's worth of ops but
    # must stop promptly rather than exhausting max_steps.
    assert outcome.steps < 10_000
    assert outcome.ops >= 5_000

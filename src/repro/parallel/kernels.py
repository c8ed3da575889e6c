"""Kernel slices: the units of work the compute pool executes.

Each task type captures the *expensive middle* of one heuristic
operation with everything it needs to run in another process:

* :class:`EvalRound` — one tabu candidate-evaluation round (the middle
  of ``TabuSearch.step`` / the body of ``ParallelEvaluator``);
* :class:`StepBatch` — a batch of complete tabu steps over migrated
  search state (``TabuSearch.export_state``), the unit ``RealEngine``
  offloads per advance.

Every task has two executors that return **identical** results and op
meters:

* the *reference* executor (``vectorized=False``) runs the same
  pure-Python kernels ``TabuSearch.step`` uses;
* the *vectorized* executor batches all candidate evaluations of a task
  through the numpy level-expansion kernels.

Simulated time is charged from the returned op counts, never from wall
time, so which executor ran (and on which process) is unobservable to
the simulation — that is the compute plane's determinism argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..ramsey.graphs import (
    OpCounter,
    _above_masks,
    _count_cliques_with_edge_in,
    _expand_bits,
)
from ..ramsey.heuristics import TabuSearch

__all__ = [
    "EvalRound",
    "EvalResult",
    "StepBatch",
    "StepBatchResult",
    "run_task",
]

#: Masks must fit one machine word for the vectorized executors.
_NP_MAX_K = 63


# -- task & result records --------------------------------------------------
@dataclass(slots=True)
class EvalRound:
    """Evaluate candidate edge flips against one coloring.

    ``red`` is the red adjacency rows (``Coloring.red``); blue rows are
    derived (the coloring invariant makes them redundant on the wire).
    With ``tabu``/``aspiration_below`` set this is the middle of one
    ``TabuSearch`` step; with ``tabu=None`` it is a ``ParallelEvaluator``
    round (pure minimum over all candidates).
    """

    k: int
    n: int
    red: list
    edges: list
    tabu: Optional[list] = None
    aspiration_below: int = 0


@dataclass(slots=True)
class EvalResult:
    best_move: Optional[tuple]
    best_delta: int
    ops: int


@dataclass(slots=True)
class StepBatch:
    """Run up to ``max_steps`` full tabu steps over migrated state.

    ``state`` is ``TabuSearch.export_state()``; the result carries the
    continued state plus the exact ops charged, which the host adds to
    its own counter (the batch loop stops at the same ops/steps/found
    boundaries ``RealEngine.advance`` checks between inline steps).
    """

    state: dict
    max_steps: int
    ops_budget: Optional[float] = None


@dataclass(slots=True)
class StepBatchResult:
    state: dict
    ops: int
    steps: int


# -- shared helpers ---------------------------------------------------------
def _blue_from_red(k: int, red: list) -> list:
    full = (1 << k) - 1
    return [full & ~red[v] & ~(1 << v) for v in range(k)]


def _select(edges, tabu, margin, deltas) -> tuple[Optional[tuple], int]:
    """The tabu/aspiration filter + first-wins minimum, in draw order
    (the exact back half of the candidate loop in ``TabuSearch.step``)."""
    best: Optional[tuple] = None
    best_delta = 0
    for i, edge in enumerate(edges):
        delta = deltas[i]
        if tabu is not None and tabu[i] and not (delta < margin):
            continue
        if best is None or delta < best_delta:
            best, best_delta = edge, delta
    if best is None:
        return None, 0
    return (int(best[0]), int(best[1])), int(best_delta)


# -- reference executors ----------------------------------------------------
def _eval_round_py(task: EvalRound) -> EvalResult:
    k, n = task.k, task.n
    red = [int(m) for m in task.red]
    blue = _blue_from_red(k, red)
    ops = OpCounter()
    deltas = []
    for u, v in task.edges:
        same, other = (red, blue) if (red[u] >> v) & 1 else (blue, red)
        before = _count_cliques_with_edge_in(same, k, u, v, n, ops)
        after = _count_cliques_with_edge_in(other, k, u, v, n, ops)
        deltas.append(after - before)
    move, delta = _select(task.edges, task.tabu, task.aspiration_below, deltas)
    return EvalResult(move, delta, ops.ops)


# -- vectorized executors ---------------------------------------------------
def _edge_counts_np(
    red: np.ndarray, blue: np.ndarray, k: int, n: int, jobs: list
) -> tuple[np.ndarray, int]:
    """Batched ``_count_cliques_with_edge_in`` over (color, u, v) jobs.

    Returns ``(counts, ops)`` with per-job clique counts and the exact
    total op meter the reference kernel charges for the same jobs.
    """
    count = len(jobs)
    if count == 0:
        return np.zeros(0, dtype=np.int64), 0
    ms = np.stack([red, blue])
    above = _above_masks(k)
    col = np.array([j[0] for j in jobs])
    uu = np.array([j[1] for j in jobs])
    vv = np.array([j[2] for j in jobs])
    sets = ms[col, uu] & ms[col, vv]  # common neighborhoods, one per job
    counted = 2 * k * count
    if n == 2:
        return np.ones(count, dtype=np.int64), counted
    counted += k * count  # the induced-subgraph build, k once per job
    jidx = np.arange(count)
    if n == 3:
        counted += k * count  # need==1 leaf per job
        return np.bitwise_count(sets).astype(np.int64), counted
    need = n - 2
    while need > 2:  # interior levels: 2k per visited bit
        parent, w = _expand_bits(sets, k)
        counted += 2 * k * len(w)
        sets = sets[parent] & ms[col[jidx[parent]], w] & above[w]
        jidx = jidx[parent]
        need -= 1
    # need == 2: flattened leaf level, 3k per bit + one popcount
    parent, w = _expand_bits(sets, k)
    counted += 3 * k * len(w)
    leaves = sets[parent] & ms[col[jidx[parent]], w] & above[w]
    popcounts = np.bitwise_count(leaves).astype(np.int64)
    counts = np.bincount(
        jidx[parent], weights=popcounts, minlength=count).astype(np.int64)
    return counts, counted


def _eval_round_np(task: EvalRound) -> EvalResult:
    k, n = task.k, task.n
    if not (2 <= n and k <= _NP_MAX_K) or not task.edges:
        return _eval_round_py(task)
    red = np.asarray(task.red, dtype=np.uint64)
    full = np.uint64((1 << k) - 1)
    self_bits = np.uint64(1) << np.arange(k, dtype=np.uint64)
    blue = full & ~red & ~self_bits
    # Two jobs per edge, in the reference order: same color then other.
    jobs = []
    red_py = red  # uint64 indexing below needs ints
    for u, v in task.edges:
        same = 0 if (int(red_py[u]) >> v) & 1 else 1
        jobs.append((same, u, v))
        jobs.append((1 - same, u, v))
    counts, ops = _edge_counts_np(red, blue, k, n, jobs)
    deltas = (counts[1::2] - counts[0::2]).tolist()
    move, delta = _select(task.edges, task.tabu, task.aspiration_below, deltas)
    return EvalResult(move, delta, ops)


# -- step batches -----------------------------------------------------------
def _run_step_batch(task: StepBatch, vectorized: bool) -> StepBatchResult:
    ops = OpCounter()
    search = TabuSearch.from_state(task.state, ops=ops)
    evaluate = _eval_round_np if vectorized else _eval_round_py
    steps = 0
    while (
        (task.ops_budget is None or ops.ops < task.ops_budget)
        and steps < task.max_steps
        and not search.found
    ):
        round_ = search.prepare_round()
        outcome = evaluate(EvalRound(
            k=round_["k"], n=round_["n"], red=round_["red"],
            edges=round_["edges"], tabu=round_["tabu"],
            aspiration_below=round_["aspiration_below"]))
        search.apply_round(outcome.best_move, outcome.best_delta, outcome.ops)
        steps += 1
    return StepBatchResult(search.export_state(), ops.ops, steps)


# -- dispatch ---------------------------------------------------------------
def run_task(task, vectorized: bool = False):
    """Execute one kernel task; both executors are bit-identical."""
    if isinstance(task, EvalRound):
        return _eval_round_np(task) if vectorized else _eval_round_py(task)
    if isinstance(task, StepBatch):
        return _run_step_batch(task, vectorized)
    raise TypeError(f"unknown kernel task {task!r}")

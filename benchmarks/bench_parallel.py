"""Refresh the repo-root ``BENCH_parallel.json`` compute-plane curve.

Usage (from the repository root)::

    python benchmarks/bench_parallel.py
    python benchmarks/bench_parallel.py --quick --check

Runs the tabu step-batch workload (K_43, the R(5,5) search target)
through ``KernelPool`` at 0/1/2/4 workers — 0 runs the reference
kernels inline, the serial substrate every simulation run uses by
default — and records aggregate kernel throughput (moves/s), speedup vs
inline, and the per-worker-count parity hash. The hash digests the complete final
search states (colorings, energies, tabu lists, RNG positions), so equal
hashes mean the pool produced *bit-identical* search trajectories, not
just similar quality.

Speedup composition: pool workers run the vectorized numpy batch kernels
while zero workers run the pure-Python reference path, so the curve
reflects vectorization x available cores. On a single-core host (CI)
the curve is flat across worker counts but still far above inline;
``host_cpus`` is recorded so readers can interpret the curve.

The gate (``--check``) asserts parity hashes matching serial at every
worker count and, on a full run, the acceptance floor: >= 2.5x aggregate
throughput at the top worker count vs zero workers, judged on each
count's best round (a full run takes at least 5 rounds per count, and
each row lists every round's moves/s in ``round_moves_per_s``; parity
hash ``2438a1107ffe4aa6``). ``--quick`` runs a reduced workload (parity
hash ``201347a903ba2d44``) and gates parity only.
"""

from __future__ import annotations

import hashlib
import json
import os
from time import perf_counter
from typing import Sequence

import numpy as np
from common import bench_parser, finish

from repro.parallel import KernelPool, StepBatch
from repro.ramsey.heuristics import TabuSearch

#: Acceptance floor (full runs): aggregate moves/s at the top worker
#: count vs zero workers (inline).
SPEEDUP_FLOOR = 2.5


def initial_states(
    searches: int, k: int, n: int, candidates: int, seed: int
) -> list[dict]:
    """One exported start state per search (built once, shared across
    worker counts so every pool replays the identical workload)."""
    return [
        TabuSearch(
            k, n, np.random.default_rng((seed, i)), candidates=candidates
        ).export_state()
        for i in range(searches)
    ]


def parity_hash(states: Sequence[dict]) -> str:
    """Content digest of full search states, independent of completion
    order (searches are independent, so sorting loses nothing)."""
    canon = sorted(
        json.dumps(state, sort_keys=True, default=int) for state in states
    )
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()[:16]


def run_pool(
    pool: KernelPool,
    states: Sequence[dict],
    batches: int,
    steps_per_batch: int,
) -> dict:
    """Run ``batches`` step-batches per search through ``pool``; returns
    throughput plus the parity hash of the final states."""
    current = [dict(s) for s in states]
    remaining = [batches] * len(current)
    inflight: dict[int, int] = {}  # ticket -> search index
    moves = 0
    ops = 0
    t0 = perf_counter()
    for i, state in enumerate(current):
        if remaining[i] > 0:
            remaining[i] -= 1
            inflight[pool.submit(StepBatch(state, steps_per_batch))] = i
    while inflight:
        for ticket, result in pool.collect(block=True):
            i = inflight.pop(ticket)
            current[i] = result.state
            moves += result.steps
            ops += result.ops
            if remaining[i] > 0:
                remaining[i] -= 1
                inflight[pool.submit(
                    StepBatch(result.state, steps_per_batch))] = i
    wall = perf_counter() - t0
    return {
        "moves": moves,
        "ops": ops,
        "wall_s": wall,
        "moves_per_s": moves / wall if wall > 0 else 0.0,
        "parity_hash": parity_hash(current),
        "fallbacks": pool.fallbacks,
        # Per-worker kernel wall seconds (measured inside each worker
        # process). Empty at zero workers — the parent did the work.
        "worker_wall_s": [round(s, 6) for s in pool.worker_busy_s],
    }


def run_scaling(
    worker_counts: Sequence[int],
    config: dict,
) -> list[dict]:
    """The full curve: one row per worker count (0 = inline).

    ``speedup_vs_inline`` is against the inline row. Oversubscribed rows
    carry a warning because the measured speedup composes vectorization
    (the pool's batch kernels) with real cores — on a single-core host
    the vectorization term is what remains.
    """
    base = initial_states(config["searches"], config["k"], config["n"],
                          config["candidates"], config["seed"])
    host_cpus = os.cpu_count() or 1
    rows = []
    for workers in worker_counts:
        outcomes = []
        for _ in range(max(config["rounds"], 1)):
            pool = KernelPool(workers)
            try:
                outcomes.append(run_pool(pool, base, config["batches"],
                                         config["steps_per_batch"]))
            finally:
                pool.close()
        if len({outcome["parity_hash"] for outcome in outcomes}) != 1:
            raise AssertionError("parity hash changed between rounds")
        best = max(outcomes, key=lambda outcome: outcome["moves_per_s"])
        row = {"cell": "inline" if workers == 0 else "pool",
               "workers": workers, **best,
               # Every round, so a reader can see the spread the best
               # round (the gated figure) was drawn from.
               "round_moves_per_s": [round(outcome["moves_per_s"], 1)
                                     for outcome in outcomes]}
        if workers > host_cpus:
            # Oversubscribed: workers time-slice the same cores, so the
            # measured speedup understates what real cores would give.
            row["warning"] = (
                f"{workers} workers > {host_cpus} host cpus: "
                f"oversubscribed, speedup is vectorization only")
        rows.append(row)
    inline_rate = next(
        (r["moves_per_s"] for r in rows if r["workers"] == 0),
        rows[0]["moves_per_s"])
    for row in rows:
        row["speedup_vs_inline"] = (
            row["moves_per_s"] / inline_rate if inline_rate else 0.0)
    return rows


def check(rows: list[dict], quick: bool) -> list[str]:
    failures = []
    if len({row["parity_hash"] for row in rows}) != 1:
        failures.append("pool and serial search states diverged")
    top = max(rows, key=lambda row: row["workers"])
    if not quick and top["speedup_vs_inline"] < SPEEDUP_FLOOR:
        failures.append(f"{top['workers']}-worker speedup "
                        f"{top['speedup_vs_inline']:.2f}x is below the "
                        f"{SPEEDUP_FLOOR}x floor")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = bench_parser(__doc__, "parallel")
    parser.add_argument("--workers", type=str, default="0,1,2,4",
                        help="comma-separated pool sizes (0 = inline)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="best-of rounds per worker count (full runs "
                             "take at least 5: fewer cannot resolve the "
                             "round-to-round spread)")
    args = parser.parse_args(argv)

    worker_counts = [int(w) for w in args.workers.split(",")]
    if args.quick:
        config = {"searches": 2, "k": 30, "n": 5, "candidates": 24,
                  "steps_per_batch": 10, "batches": 2, "rounds": 1}
    else:
        config = {"searches": 4, "k": 43, "n": 5, "candidates": 64,
                  "steps_per_batch": 25, "batches": 4,
                  "rounds": max(args.rounds, 5)}
    config.update(seed=0, workers=worker_counts)
    rows = run_scaling(worker_counts, config)

    print(f"{'workers':>8} {'moves/s':>12} {'speedup':>8} "
          f"{'parity':>18} {'fallbacks':>9}  {'worker wall s':>13}")
    for row in rows:
        walls = row.get("worker_wall_s") or []
        wall_col = ("/".join(f"{w:.2f}" for w in walls) if walls
                    else "(inline)")
        print(f"{row['workers']:>8} {row['moves_per_s']:>12,.0f} "
              f"{row['speedup_vs_inline']:>7.2f}x "
              f"{row['parity_hash']:>18} {row['fallbacks']:>9}  "
              f"{wall_col:>13}")
        if row.get("warning"):
            print(f"{'':>8} warning: {row['warning']}")
    floors = {"parity": "one hash across worker counts"}
    if not args.quick:
        floors["speedup_vs_inline"] = SPEEDUP_FLOOR
    return finish(args, "parallel", config, floors, rows,
                  check(rows, args.quick))


if __name__ == "__main__":
    raise SystemExit(main())

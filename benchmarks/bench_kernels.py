"""Refresh the repo-root ``BENCH_kernels.json`` compute-kernel rates.

Usage (from the repository root)::

    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --quick --check

Three kernels no end-to-end workload isolates: tabu-search moves (the §3
search heuristics' unit of progress), full clique recounts, and
perf-record ingestion into the measurement plane. Each cell warms up
once, then reports the median and best items/s over its rounds; rates do
not depend on the work size, so ``--quick`` (fewer tabu steps, fewer
rounds) is comparable with the committed full run.

The gate (``--check``) fails a cell whose median falls more than 30%
below its row in the committed ``BENCH_kernels.json``.
"""

from __future__ import annotations

import json
import time

from common import ROOT, bench_parser, finish

#: A cell fails ``--check`` below this fraction of its committed median.
MIN_FRACTION_OF_COMMITTED = 0.70


def run_tabu_search(steps: int) -> int:
    """Tabu-search moves on the K_43 R(5,5) problem (§3 heuristics)."""
    import numpy as np

    from repro.ramsey.graphs import OpCounter
    from repro.ramsey.heuristics import TabuSearch

    search = TabuSearch(43, 5, np.random.default_rng(0),
                        ops=OpCounter(), candidates=8)
    search.run(max_steps=steps, target=-1)
    return steps


def run_clique_recount(reps: int) -> int:
    """Full monochromatic-K_5 recounts of a random K_43 coloring."""
    import numpy as np

    from repro.ramsey.graphs import Coloring, OpCounter, count_mono_cliques

    coloring = Coloring.random(43, np.random.default_rng(7))
    ops = OpCounter()
    for _ in range(reps):
        count_mono_cliques(coloring, 5, ops)
    return reps


def run_metrics_ingest(n: int) -> int:
    """Perf-record ingestion into TimeBuckets, batched."""
    import numpy as np

    from repro.experiments.metrics import TimeBuckets

    rng = np.random.default_rng(3)
    ts = rng.uniform(0.0, 1000.0, n)
    values = rng.uniform(0.0, 10.0, n)
    TimeBuckets(0.0, 10.0, 100).add_many(ts, values)
    return n


#: cell -> (workload, unit, work items: (full, quick))
CELLS = {
    "tabu_search": (run_tabu_search, "moves/s", (200, 100)),
    "clique_recount": (run_clique_recount, "recounts/s", (20, 20)),
    "metrics_ingest": (run_metrics_ingest, "records/s", (200_000, 200_000)),
}


def measure(cell: str, quick: bool) -> dict:
    fn, unit, (full, reduced) = CELLS[cell]
    items, rounds = (reduced, 3) if quick else (full, 5)
    fn(items)  # warm-up: imports, allocator, branch caches
    rates = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn(items)
        rates.append(items / (time.perf_counter() - t0))
    rates.sort()
    return {"cell": cell, "unit": unit, "work_items": items,
            "rounds": rounds, "median": round(rates[len(rates) // 2], 1),
            "best": round(rates[-1], 1)}


def check(rows: list[dict], committed: dict) -> list[str]:
    failures = []
    for row in rows:
        floor = MIN_FRACTION_OF_COMMITTED * committed[row["cell"]]["median"]
        if row["median"] < floor:
            failures.append(
                f"{row['cell']}: {row['median']:,.0f} {row['unit']} is more "
                f"than {1 - MIN_FRACTION_OF_COMMITTED:.0%} below the "
                f"committed median {committed[row['cell']]['median']:,.0f} "
                f"(floor {floor:,.0f})")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = bench_parser(__doc__, "kernels")
    args = parser.parse_args(argv)
    committed_path = ROOT / "BENCH_kernels.json"
    committed = {row["cell"]: row for row in
                 json.loads(committed_path.read_text())["rows"]}

    rows = []
    for cell in CELLS:
        row = measure(cell, args.quick)
        rows.append(row)
        print(f"{cell:16s} {row['median']:>14,.1f} {row['unit']} "
              f"(best {row['best']:,.1f}; committed "
              f"{committed[cell]['median']:,.1f})")
    config = {cell: {"work_items": row["work_items"], "rounds": row["rounds"]}
              for cell, row in zip(CELLS, rows)}
    floors = {"min_fraction_of_committed": MIN_FRACTION_OF_COMMITTED}
    return finish(args, "kernels", config, floors, rows,
                  check(rows, committed))


if __name__ == "__main__":
    raise SystemExit(main())

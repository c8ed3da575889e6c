"""Refresh the repo-root ``BENCH_engine.json`` / ``BENCH_kernels.json``.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/perf_snapshot.py
    PYTHONPATH=src python benchmarks/perf_snapshot.py --quick
    PYTHONPATH=src python benchmarks/perf_snapshot.py \
        --before-tree /path/to/seed-worktree/src

Without ``--before-tree`` the script measures the current tree and updates
each workload's ``after`` block, preserving the committed ``before`` block
(the seed measurement). With ``--before-tree`` it alternates rounds
between the two checkouts in a single process — interleaving defeats
machine-level noise (turbo, cache state) that makes separate runs
incomparable — and rewrites both blocks.

Run it after a perf-relevant change and commit the refreshed JSON: the
files are the repository's perf trajectory, PR over PR.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))  # for `import workloads` when run as a script
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import perfjson  # noqa: E402
import workloads  # noqa: E402

#: workload name -> (callable, unit, work items, which JSON file)
WORKLOADS = {
    "timeout_storm": (workloads.run_timeout_storm, "events/s",
                      workloads.N_TIMEOUT_EVENTS, "engine"),
    "message_pingpong": (workloads.run_message_pingpong, "roundtrips/s",
                         workloads.N_ROUNDTRIPS, "engine"),
    "tabu_search": (workloads.run_tabu_search, "moves/s",
                    workloads.N_TABU_STEPS, "kernels"),
    "clique_recount": (workloads.run_clique_recount, "recounts/s",
                       workloads.N_RECOUNTS, "kernels"),
    "metrics_ingest": (workloads.run_metrics_ingest, "records/s",
                       workloads.N_INGEST_RECORDS, "kernels"),
    "codec_roundtrip": (workloads.run_codec_roundtrip, "messages/s",
                        workloads.N_CODEC_MESSAGES, "kernels"),
    "codec_decode": (workloads.run_codec_decode, "messages/s",
                     workloads.N_CODEC_MESSAGES, "kernels"),
}


def _purge_repro_modules() -> None:
    for name in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[name]


def _one_interleaved_round(tree: str | None, fn) -> float:
    """One timed round of ``fn`` against ``tree`` (None = current checkout).

    Each call swaps which ``repro`` is importable and purges the loaded
    modules, so the first (untimed) warm-up invocation pays the re-import
    and the timed invocation measures only the workload.
    """
    if tree is not None:
        sys.path.insert(0, tree)
    _purge_repro_modules()
    try:
        fn()  # warm-up: re-import after the module purge, heat caches
        t0 = time.perf_counter()
        items = fn()
        elapsed = time.perf_counter() - t0
        return items / elapsed
    finally:
        if tree is not None:
            sys.path.remove(tree)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before-tree", metavar="SRC_DIR", default=None,
                        help="src/ dir of the baseline checkout to measure "
                             "interleaved with the current tree")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="3 rounds instead of 5 (CI smoke / sanity)")
    parser.add_argument("--rebaseline", action="store_true",
                        help="allow overwriting a committed 'before' "
                             "baseline with a new one (required when "
                             "--before-tree re-measures the origin)")
    args = parser.parse_args(argv)
    rounds = 3 if args.quick else args.rounds
    if args.before_tree and not (
            pathlib.Path(args.before_tree) / "repro").is_dir():
        # Without this, a bad path silently falls through to the current
        # tree and records a bogus 1.0x baseline.
        parser.error(f"--before-tree {args.before_tree!r} has no repro/ "
                     "package (point it at the checkout's src/ directory)")

    existing = {
        "engine": perfjson.load(perfjson.ENGINE_JSON),
        "kernels": perfjson.load(perfjson.KERNELS_JSON),
    }
    out: dict[str, dict] = {"engine": {}, "kernels": {}}

    for name, (fn, unit, items, which) in WORKLOADS.items():
        if args.before_tree:
            # Alternate single rounds between the trees.
            before_rates, after_rates = [], []
            for _ in range(rounds):
                before_rates.append(
                    _one_interleaved_round(args.before_tree, fn))
                after_rates.append(_one_interleaved_round(None, fn))
            before_rates.sort()
            after_rates.sort()
            before = {
                "best": round(before_rates[-1], 1),
                "median": round(before_rates[len(before_rates) // 2], 1),
                "source": "baseline tree measured interleaved, same process",
            }
            after = {
                "best": round(after_rates[-1], 1),
                "median": round(after_rates[len(after_rates) // 2], 1),
            }
        else:
            fn()  # warm-up (imports, allocator, branch caches)
            after = perfjson.measure_rate(fn, rounds=rounds)
            prev = existing[which]
            before = (prev["workloads"].get(name, {}).get("before")
                      if prev else None)
        spec = {"unit": unit, "work_items": items, "rounds": rounds,
                "after": after}
        if before:
            spec["before"] = before
        out[which][name] = spec
        shown = f"{after['median']:,.0f} {unit} (best {after['best']:,.0f})"
        if before:
            shown += f"  [{after['median'] / before['median']:.2f}x vs before]"
        print(f"{name:18s} {shown}")

    for which, path in (("engine", perfjson.ENGINE_JSON),
                        ("kernels", perfjson.KERNELS_JSON)):
        conflicts = perfjson.baseline_conflicts(path, out[which])
        if conflicts and not args.rebaseline:
            parser.error(
                f"{path.name}: refusing to overwrite the committed "
                f"'before' baseline for {', '.join(conflicts)}; the "
                "before block anchors the whole perf trajectory. Rerun "
                "with --rebaseline to accept the new baseline.")
    perfjson.write(perfjson.ENGINE_JSON, out["engine"])
    perfjson.write(perfjson.KERNELS_JSON, out["kernels"])
    print(f"wrote {perfjson.ENGINE_JSON.name}, {perfjson.KERNELS_JSON.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

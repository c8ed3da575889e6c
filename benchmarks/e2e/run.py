"""One end-to-end benchmark for both planes.

One run, as the driver calls it (last stdout line is the result JSON)::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

The whole suite, each repeat in a fresh process::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--repeats R]
                                  [--traced] [--out DIR] [--update]

Tools::

    python3 benchmarks/e2e/run.py --compare A/results.json B/results.json
    python3 benchmarks/e2e/run.py --selftest

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the ladders, an untraced reference run (fresh
process) and then the traced pass, and reports every per-layer metric,
including ``trace.overhead_frac`` between the two. See README.md.
"""

from __future__ import annotations

T_START = __import__("time").perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"e2e benchmark: no program to measure under {SRC}")
sys.path.insert(0, SRC)

import stats  # noqa: E402
from metrics import (END_TO_END, PER_LAYER, RUN_SECONDS,  # noqa: E402
                     benchmark_json)
from spans import Recorder, check_dump  # noqa: E402
from workloads import RUNNERS, WORKLOADS, Outcome  # noqa: E402

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
BASELINE_JSON = os.path.join(HERE, "baseline.json")
#: Scratch space inside the checkout (journals, span dumps, results).
SCRATCH = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 1998
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CATALOGUE = {m.name: m for m in END_TO_END + PER_LAYER}
UNITS = {name: m.unit for name, m in CATALOGUE.items()}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_untraced(workload: str, seed: int, seconds: float, out_dir: str) -> dict:
    outcome = RUNNERS[workload](seed, seconds, T_START, None, out_dir)
    return _result_doc(workload, seed, seconds, False, outcome)


def run_traced(workload: str, seed: int, seconds: float, out_dir: str) -> dict:
    """Ladders (classes still unwrapped), untraced reference in a fresh
    process, then the traced pass in this one."""
    import ladder
    notes: list = []
    scale = seconds / RUN_SECONDS
    if workload in ("sc98_fig2", "pool_converge"):
        rungs = ladder.sim_ladder(seed, notes, scale)
    else:
        rungs = ladder.control_ladder(seed, out_dir, notes, scale)

    ref_dir = os.path.join(out_dir, "reference")
    reference = _spawn_run(workload, seed, seconds, 0, ref_dir)

    outcome = RUNNERS[workload](seed, seconds, T_START, Recorder(), out_dir)
    outcome.notes.extend(notes)
    metrics = {m.name: 0.0 for m in PER_LAYER}
    # User-visible latencies and untraced gateway figures come from the
    # reference run: tracing must not colour them.
    for name, value in reference["metrics"].items():
        if name in metrics:
            metrics[name] = value
    outcome.samples.update(reference["samples"])
    for name, value in outcome.metrics.items():
        if name in metrics and name not in reference["metrics"]:
            metrics[name] = value
    metrics.update(rungs)
    ref_wall = reference["metrics"]["wall_s"]
    metrics["trace.overhead_frac"] = outcome.metrics["wall_s"] / ref_wall - 1.0
    outcome.check("reference_run_correct", reference["correct"],
                  "the untraced reference run, in a fresh process")
    if outcome.export_sha is not None:
        outcome.check("traced_export_identical_to_untraced",
                      outcome.export_sha == reference["export_sha"],
                      f"traced {outcome.export_sha[:12]} vs untraced "
                      f"{str(reference['export_sha'])[:12]}")
    outcome.metrics = metrics
    doc = _result_doc(workload, seed, seconds, True, outcome)
    doc["reference"] = reference
    return doc


def _result_doc(workload: str, seed: int, seconds: float, traced: bool,
                outcome: Outcome) -> dict:
    return {
        "schema": "e2e-result/1",
        "workload": workload, "seed": seed, "seconds": seconds,
        "traced": traced, "host_cpus": os.cpu_count(),
        "correct": outcome.correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "checks": outcome.checks, "metrics": outcome.metrics,
        "samples": outcome.samples, "export_sha": outcome.export_sha,
        "notes": outcome.notes,
    }


def contract_line(doc: dict) -> str:
    """The driver's result object: exactly the declared metrics."""
    declared = PER_LAYER if doc["traced"] else END_TO_END
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m.name: {"value": doc["metrics"][m.name], "unit": m.unit}
                    for m in declared},
    })


def print_run(doc: dict) -> None:
    print(f"# {doc['workload']} seed={doc['seed']} seconds={doc['seconds']:g} "
          f"traced={int(doc['traced'])} host_cpus={doc['host_cpus']}")
    for name, value in doc["metrics"].items():
        if _applies(name, doc["workload"], value):
            n = doc["samples"].get(name)
            count = f"  n={n}" if n is not None else ""
            print(f"{name:<32} {value:>16.6g} {UNITS[name]:<6}{count}")
    print(f"{'ops_attempted':<32} {doc['attempted']:>16d}")
    print(f"{'ops_failed':<32} {doc['failed']:>16d}")
    if doc["export_sha"]:
        print(f"{'export_sha':<32} {doc['export_sha']}")
    for name, (ok, detail) in doc["checks"].items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}  {detail}")
    for note in doc["notes"]:
        print(f"note: {note}")
    if doc["traced"]:
        print("rule: " + interaction_rule(doc))


def _applies(metric: str, workload: str, value: float) -> bool:
    """Rows worth printing: a layer metric on a workload that does not
    touch the layer reads 0 and is left out (a non-zero one is not)."""
    return bool(value) or workload in CATALOGUE[metric].on


def interaction_rule(doc: dict) -> str:
    """How a layer's saving turns into an end-to-end one on this run."""
    metrics = doc["metrics"]
    if not metrics["tcp.reactor.calls"]:
        return ("sim workload, nothing else contends: a layer can save at "
                "most its self_s / wall_s")
    traced_wall = (doc["reference"]["metrics"]["wall_s"]
                   * (1.0 + metrics["trace.overhead_frac"]))
    waiting = metrics["tcp.reactor.wait_s"] / traced_wall
    if waiting < 0.1:
        return (f"control workload, gateway saturated (blocked {waiting:.0%} "
                "of the wall): freed reactor/journal time converts to "
                "wall_s one-for-one, and to latency through the window")
    return (f"control workload, gateway blocked {waiting:.0%} of the wall "
            "waiting for its client: time saved in the gateway and time "
            "saved in the client both shorten a generation, neither "
            "one-for-one")


def single_run(args) -> int:
    out_dir = args.out or _scratch_dir(f"{args.workload}-{args.seed}-")
    os.makedirs(out_dir, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        doc = run(args.workload, args.seed, args.seconds, out_dir)
        with open(os.path.join(out_dir, "result.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        print_run(doc)
        print(contract_line(doc))
        return 0 if doc["correct"] else 1
    finally:
        if not args.out:
            shutil.rmtree(out_dir, ignore_errors=True)


def _scratch_dir(prefix: str) -> str:
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)


def _spawn_run(workload: str, seed: int, seconds: float, trace: int,
               out_dir: str) -> dict:
    """One run in a fresh process; returns its result document."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace),
           "--out", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    path = os.path.join(out_dir, "result.json")
    if not os.path.exists(path):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} "
                           f"without a result:\n{proc.stdout}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def suite(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    out_dir = args.out or _scratch_dir("suite-")
    baseline = _load(BASELINE_JSON) if os.path.exists(BASELINE_JSON) else {}
    report = {"schema": "e2e-results/1", "host_cpus": os.cpu_count(),
              "seed": args.seed, "seconds": args.seconds,
              "repeats": args.repeats, "workloads": {}}
    ok = True
    try:
        for name in names:
            runs = [_spawn_run(name, args.seed, args.seconds, 0,
                               os.path.join(out_dir, name, f"run{i}"))
                    for i in range(args.repeats)]
            traced = (_spawn_run(name, args.seed, args.seconds, 1,
                                 os.path.join(out_dir, name, "traced"))
                      if args.traced else None)
            entry = _summarize(name, runs, traced)
            report["workloads"][name] = entry
            ok &= _print_entry(name, entry, baseline, args)
        with open(os.path.join(out_dir, "results.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        if args.out:
            print(f"results: {os.path.join(out_dir, 'results.json')}")
        if args.update and ok:
            _update(report)
        return 0 if ok else 1
    finally:
        if not args.out:
            shutil.rmtree(out_dir, ignore_errors=True)


def _summarize(name: str, runs: list, traced) -> dict:
    values: dict = {}
    for run in runs:
        for metric, value in run["metrics"].items():
            values.setdefault(metric, []).append(value)
    shas = sorted({run["export_sha"] for run in runs if run["export_sha"]})
    return {
        "runs": values,
        "samples": runs[0]["samples"],
        "attempted": runs[0]["attempted"],
        "failed": sum(run["failed"] for run in runs),
        "correct": all(run["correct"] for run in runs)
        and (traced is None or traced["correct"]) and len(shas) <= 1,
        "failed_checks": sorted(
            {f"{check}: {detail}" for run in runs + ([traced] if traced else [])
             for check, (passed, detail) in run["checks"].items()
             if not passed}),
        "export_shas": shas,
        "traced": None if traced is None else {
            "metrics": traced["metrics"], "samples": traced["samples"],
            "notes": traced["notes"]},
    }


def _print_entry(name: str, entry: dict, baseline: dict, args) -> bool:
    print(f"\n== {name}: {WORKLOADS[name]}")
    print(f"{'metric':<32} {'median':>14} {'unit':<6} {'iqr/median':>10} "
          f"{'repeats':>7} {'samples':>8}")
    for metric, values in entry["runs"].items():
        n = entry["samples"].get(metric, "")
        print(f"{metric:<32} {stats.median(values):>14.6g} "
              f"{UNITS[metric]:<6} {stats.spread(values):>10.3f} "
              f"{len(values):>7d} {n!s:>8}")
    print(f"{'ops_attempted':<32} {entry['attempted']:>14d}")
    print(f"{'ops_failed':<32} {entry['failed']:>14d}")
    if entry["traced"] is not None:
        print("-- per layer (one traced run)")
        for metric, value in entry["traced"]["metrics"].items():
            if _applies(metric, name, value):
                n = entry["traced"]["samples"].get(metric)
                count = f"  n={n}" if n is not None else ""
                print(f"{metric:<32} {value:>14.6g} {UNITS[metric]:<6}{count}")
        for note in entry["traced"]["notes"]:
            print(f"note: {note}")
    if len(entry["export_shas"]) > 1:
        print(f"FAIL same-seed export differs across repeats: "
              f"{entry['export_shas']}")
    for failure in entry["failed_checks"]:
        print(f"FAIL {failure}")
    recorded = baseline.get("workloads", {}).get(name, {})
    if (entry["export_shas"] and recorded.get("export_sha")
            and (args.seed, args.seconds) == (baseline.get("seed"),
                                              baseline.get("seconds"))):
        sha = entry["export_shas"][0]
        if sha != recorded["export_sha"]:
            print(f"export_sha CHANGED: {sha} (recorded "
                  f"{recorded['export_sha']}) -- simulated statistics "
                  f"must stay identical under a speed-only change")
        else:
            print(f"export_sha unchanged: {sha}")
    return entry["correct"]


def _update(report: dict) -> None:
    """Record this suite's medians as the baseline; regenerate
    BENCHMARK.json from the catalogue."""
    baseline = {
        "schema": "e2e-baseline/1",
        "claim": None,
        "host_cpus": report["host_cpus"],
        "seed": report["seed"], "seconds": report["seconds"],
        "repeats": report["repeats"],
        "workloads": {
            name: {
                "export_sha": (entry["export_shas"] or [None])[0],
                "attempted": entry["attempted"],
                "medians": {m: stats.median(v)
                            for m, v in entry["runs"].items()},
                "per_layer": (entry["traced"] or {}).get("metrics"),
            } for name, entry in report["workloads"].items()},
    }
    _dump(BASELINE_JSON, baseline)
    _dump(BENCHMARK_JSON, benchmark_json())
    print(f"updated {BASELINE_JSON} and {BENCHMARK_JSON}")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """Apply each end-to-end metric's bound to two suite results (A is
    the parent). Non-zero if any pairing regressed."""
    a, b = _load(path_a), _load(path_b)
    if (a["seed"], a["seconds"]) != (b["seed"], b["seconds"]):
        print("warning: the two result sets used different seed/seconds")
    regressed = False
    print(f"{'workload':<16} {'metric':<14} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'bound':>6} {'pairs':>5} {'B wins':>6}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        runs_a = a["workloads"][name]["runs"]
        runs_b = b["workloads"][name]["runs"]
        for m in END_TO_END:
            if m.name not in runs_a or m.name not in runs_b:
                continue
            row = stats.compare_metric(runs_a[m.name], runs_b[m.name],
                                       m.better, m.bound)
            regressed |= row["verdict"] == "regressed"
            print(f"{name:<16} {m.name:<14} {row['median_a']:>12.5g} "
                  f"{row['median_b']:>12.5g} {row['change']:>+8.1%} "
                  f"{m.bound:>6.2f} {row['pairs']:>5d} {row['wins']:>6d}  "
                  f"{row['verdict']}")
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
# --selftest
# ---------------------------------------------------------------------------

def selftest(args) -> int:
    failures: list = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    # the catalogue and BENCHMARK.json say the same thing, within limits
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    expect(len(set(names)) == len(names), "a name is used twice")
    for name in names:
        expect(bool(NAME_RE.match(name)), f"bad name {name!r}")
    for m in END_TO_END + PER_LAYER:
        expect(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m.unit) is not None,
               f"bad unit {m.unit!r} on {m.name}")
        expect(m.better in ("lower", "higher"), f"bad direction on {m.name}")
    for m in END_TO_END:
        expect(m.bound is not None and 0 < m.bound <= 0.25,
               f"{m.name}: bound must be in (0, 0.25]")
    for name, why in WORKLOADS.items():
        expect(len(why) <= 200 and "\n" not in why, f"{name}: why too long")
    expect(any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in END_TO_END), "setup_s missing")
    expect(os.path.exists(BENCHMARK_JSON) and
           _load(BENCHMARK_JSON) == benchmark_json(),
           "BENCHMARK.json differs from the catalogue (run --update)")

    # stats edge cases
    expect(stats.percentile([], 0.5) == (None, 0), "empty percentile")
    expect(stats.percentile(list(range(19)), 0.5)[0] is None,
           "p50 of 19 samples must be refused")
    expect(stats.percentile(list(range(20)), 0.5) == (9, 20), "p50 of 20")
    expect(stats.percentile(list(range(30)), 0.1)[0] is None,
           "p10 of 30 samples must be refused")
    expect(stats.percentile(list(range(999)), 0.99)[0] is None,
           "p99 of 999 samples must be refused")
    expect(stats.percentile(list(range(1, 1101)), 0.99) == (1089, 1100),
           "p99 nearest rank")
    expect(stats.quartiles([3.0]) == (3.0, 3.0, 3.0), "quartiles of one")
    same = stats.compare_metric([10] * 10, [10] * 10, "lower", 0.1)
    worse = stats.compare_metric([10, 10.1, 9.9], [12, 12.1, 11.9], "lower", 0.1)
    better = stats.compare_metric([10 + i * 0.01 for i in range(10)],
                                  [8 + i * 0.01 for i in range(10)],
                                  "lower", 0.1)
    noisy = stats.compare_metric([8, 10, 12, 14], [9, 10, 11, 13], "lower", 0.1)
    expect([r["verdict"] for r in (same, worse, better, noisy)]
           == ["same", "regressed", "improved", "unresolved"],
           "compare_metric verdicts")

    # span recorder: nesting, self time, dump shape
    rec = Recorder()
    inner = rec.wrap(lambda: sum(range(2000)), "inner")
    outer = rec.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    expect(rec.layer("inner")[0] == 3 and rec.layer("outer")[0] == 1
           and 0 <= rec.layer("outer")[1] < rec.total[rec.name_id("outer")],
           "self time is span minus children")
    expect(check_dump(rec.dump()) is None, "synthetic dump malformed")
    broken = rec.dump()
    broken["spans"] = [list(s) for s in broken["spans"]]
    broken["spans"][1][3] = 7
    expect(check_dump(broken) is not None, "bad parent must be caught")

    # a 1-second miniature of each workload, traced (which also runs the
    # untraced reference and the ladders), all four side by side
    out_dir = args.out or _scratch_dir("selftest-")
    try:
        procs = {
            name: subprocess.Popen(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", "1", "--trace", "1",
                 "--out", os.path.join(out_dir, name)],
                stdout=subprocess.PIPE, text=True)
            for name in WORKLOADS}
        for name, proc in procs.items():
            stdout, _ = proc.communicate()
            expect(proc.returncode == 0, f"{name}: miniature exited "
                   f"{proc.returncode}:\n{stdout[-2000:]}")
            if proc.returncode != 0:
                continue
            line = json.loads(stdout.strip().splitlines()[-1])
            expect(set(line) == {"correct", "attempted", "failed", "metrics"}
                   and line["correct"] and line["attempted"] >= 1,
                   f"{name}: bad result object")
            expect(set(line["metrics"]) == {m.name for m in PER_LAYER},
                   f"{name}: traced metrics differ from the catalogue")
            doc = _load(os.path.join(out_dir, name, "result.json"))
            ref = doc["reference"]
            expect({m.name for m in END_TO_END} <= set(ref["metrics"])
                   and all(ref["metrics"][m.name] > 0 for m in END_TO_END),
                   f"{name}: untraced run lacks an end-to-end metric")
            expect(set(ref["metrics"]) <= set(UNITS),
                   f"{name}: metric not in the catalogue: "
                   f"{sorted(set(ref['metrics']) - set(UNITS))}")
            for dump in ("spans.json", "spans.client.json"):
                path = os.path.join(out_dir, name, dump)
                if os.path.exists(path):
                    problem = check_dump(_load(path))
                    expect(problem is None, f"{name}/{dump}: {problem}")
            expect(os.path.exists(os.path.join(out_dir, name, "spans.json")),
                   f"{name}: no span dump")
    finally:
        if not args.out:
            shutil.rmtree(out_dir, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="With --workload and no --repeats: one run in this process.")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="size of the timed region (fixed work per second)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="suite: add one traced run per workload "
                             "(single run: same as --trace 1)")
    parser.add_argument("--repeats", type=int,
                        help="suite: untraced runs per workload (default 3)")
    parser.add_argument("--out", help="keep results, journals and span "
                        "dumps here (default: scratch, removed afterwards)")
    parser.add_argument("--update", action="store_true",
                        help="suite: record medians in baseline.json and "
                             "regenerate BENCHMARK.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.update and (args.workload or not args.traced):
        parser.error("--update records the whole suite: use it with "
                     "--traced and without --workload")
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return selftest(args)
    if args.workload and args.repeats is None:
        args.trace = args.trace or int(args.traced)
        return single_run(args)
    args.repeats = args.repeats or 3
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())

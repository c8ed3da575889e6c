"""Refresh the repo-root ``BENCH_obs.json`` observability-cost curves.

Usage (from the repository root)::

    python benchmarks/bench_obs.py
    python benchmarks/bench_obs.py --quick --check

Two questions, two cell families:

* **trace cells** — the same ``GatewayStorm`` submission storm is run
  against a gateway child with end-to-end job tracing OFF and then ON
  (ingress span, journal/assign/done instants, TraceContext on every
  unit). The median of the per-round paired off/on throughput ratios
  is the price of tracing on the control plane's hot path; the gate
  caps it at 5% (12% under --quick, whose 8-second cells cannot
  resolve finer against CI scheduling noise).
* **spool cells** — an in-process ``FlightRecorder`` spools N spans
  (3k and 30k), is sealed, and is recovered with ``load_flight``; every
  one of the N must come back. Reported: spool throughput, seal/load
  latency, and on-disk spool size.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

from common import (GatewayProcess, bench_parser, finish, free_port,
                    percentile)

#: Acceptance ceiling: tracing may cost at most this much throughput.
TRACE_DELTA_PCT_CEILING = 5.0
#: The --quick ceiling is looser for the same reason bench_net's floors
#: are: an 8-second cell on a shared (often single-core) CI box cannot
#: resolve the ~2% true cost against scheduling noise; the quick gate
#: exists to catch a gross regression (a span per request, an O(n) scan
#: on the submit path), not to re-measure the committed baseline.
QUICK_TRACE_DELTA_PCT_CEILING = 12.0
#: Spans spooled per spool cell.
SPOOL_SPANS = (3_000, 30_000)


def _trace_cells(clients: int, rounds: int, burst_s: float,
                 seed: int) -> list[dict]:
    """Storm two gateways — tracing off and on — in alternating bursts.

    Both children are alive for the whole measurement and each round
    flips which mode goes first, so machine-wide throughput drift (the
    dominant noise source on shared hosts) hits both modes equally
    instead of masquerading as tracing cost.
    """
    from repro.control import GatewayStorm

    modes = ("trace-off", "trace-on")
    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        children = {m: GatewayProcess(free_port(),
                                      os.path.join(tmp, f"{m}.jsonl"),
                                      trace=(m == "trace-on"))
                    for m in modes}
        storms = {}
        try:
            for child in children.values():
                child.spawn()
            for mode, child in children.items():
                child.wait_healthy()
                storms[mode] = GatewayStorm("127.0.0.1", child.port,
                                            clients=clients, seed=seed)
            totals = {m: {"submitted": 0, "elapsed": 0.0} for m in modes}
            rates = {m: [] for m in modes}
            seen = {m: 0 for m in modes}
            for rnd in range(rounds):
                order = modes if rnd % 2 == 0 else tuple(reversed(modes))
                for mode in order:
                    storm = storms[mode]
                    t0 = time.monotonic()
                    while time.monotonic() - t0 < burst_s:
                        storm.step(0.005)
                    elapsed = time.monotonic() - t0
                    burst = storm.stats.submitted - seen[mode]
                    totals[mode]["elapsed"] += elapsed
                    totals[mode]["submitted"] += burst
                    seen[mode] = storm.stats.submitted
                    rates[mode].append(round(burst / elapsed, 1))
            rows = []
            for mode in modes:
                storms[mode].quiesce(grace=3.0)
                stats = storms[mode].stats
                tot = totals[mode]
                rows.append({
                    "cell": mode,
                    "clients": clients,
                    "rounds": rounds,
                    "burst_s": burst_s,
                    "duration_s": round(tot["elapsed"], 3),
                    "submitted": tot["submitted"],
                    "errors": stats.errors,
                    "submissions_per_s": round(
                        tot["submitted"] / tot["elapsed"], 1)
                    if tot["elapsed"] else 0.0,
                    "submit_p50_ms": round(
                        percentile(stats.submit_latencies, 0.50), 2),
                    "submit_p99_ms": round(
                        percentile(stats.submit_latencies, 0.99), 2),
                    "round_submissions_per_s": rates[mode],
                })
            return rows
        finally:
            for storm in storms.values():
                storm.close()
            for child in children.values():
                child.kill()


def _spool_cell(spans: int) -> dict:
    from repro.core.telemetry import Telemetry
    from repro.obs.flight import FlightRecorder, flight_path, load_flight

    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        tel = Telemetry(trace=True, id_base=1_000_000)
        rec = FlightRecorder(flight_path(tmp, "bench", 0), telemetry=tel,
                             node="bench")
        t0 = time.perf_counter()
        for i in range(spans):
            span = tel.tracer.begin("job work", component="bench",
                                    start=float(i))
            tel.tracer.finish(span, float(i) + 0.5)
            if i % 100 == 99:
                rec.tick()
        spool_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        rec.seal("bench")
        seal_ms = (time.perf_counter() - t0) * 1e3

        size = os.path.getsize(rec.path)
        t0 = time.perf_counter()
        dump = load_flight(rec.path)
        load_ms = (time.perf_counter() - t0) * 1e3
        return {
            "cell": "flight",
            "spans_fed": spans,
            "spool_spans_per_s": round(spans / spool_s, 0),
            "seal_ms": round(seal_ms, 3),
            "load_ms": round(load_ms, 3),
            "dump_bytes": size,
            "spans_recovered": len(dump["spans"]) if dump else 0,
        }


def _trace_delta_pct(rows: list[dict]) -> tuple[float, int]:
    """Tracing cost in % submissions/s, and the paired rounds behind it.

    The statistic is the MEDIAN of the per-round paired off/on
    throughput ratios, not the ratio of the aggregates: a single noisy
    burst (scheduler hiccup, page-cache writeback) moves the aggregate by
    several percent but cannot move the median, which is what lets an
    8-second quick run hold its ceiling without flaking.
    """
    by_cell = {row["cell"]: row for row in rows}
    pairs = zip(by_cell["trace-off"]["round_submissions_per_s"],
                by_cell["trace-on"]["round_submissions_per_s"])
    ratios = sorted(off / on for off, on in pairs if on)
    mid = len(ratios) // 2
    median = (ratios[mid] if len(ratios) % 2
              else (ratios[mid - 1] + ratios[mid]) / 2) if ratios else 1.0
    return round(100.0 * (1.0 - 1.0 / median), 2), len(ratios)


def main(argv: list[str] | None = None) -> int:
    parser = bench_parser(__doc__, "obs")
    # 100 clients keeps the server at a stable operating point: deep
    # saturation (bench_gateway's domain) amplifies queueing noise far
    # beyond the per-request delta this bench is trying to resolve.
    parser.add_argument("--clients", type=int, default=100,
                        help="storm client count for the trace cells")
    parser.add_argument("--rounds", type=int, default=12,
                        help="alternating off/on burst rounds")
    parser.add_argument("--burst", type=float, default=1.0,
                        help="seconds per storm burst")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    clients, rounds, burst = args.clients, args.rounds, args.burst
    if args.quick:
        # Same total wall time as 8 x 0.5s but twice the alternations:
        # more paired rounds tightens the median the ceiling checks.
        clients = min(clients, 100)
        rounds = max(rounds, 16)
        burst = min(burst, 0.25)

    rows = _trace_cells(clients, rounds, burst, seed=args.seed)
    for row in rows:
        print(f"{row['cell']:<9} {clients:>4} clients: "
              f"{row['submissions_per_s']:>8,.0f} submissions/s "
              f"over {row['rounds']} x {row['burst_s']}s bursts, "
              f"submit p50 {row['submit_p50_ms']:.1f} ms")
    delta_pct, paired = _trace_delta_pct(rows)
    ceiling = (QUICK_TRACE_DELTA_PCT_CEILING if args.quick
               else TRACE_DELTA_PCT_CEILING)
    rows.append({"cell": "trace-cost", "delta_pct": delta_pct,
                 "paired_rounds": paired})
    print(f"tracing cost: {delta_pct:+.1f}% submissions/s "
          f"(median of {paired} paired rounds, ceiling {ceiling:.0f}%)")

    for spans in SPOOL_SPANS:
        row = _spool_cell(spans)
        rows.append(row)
        print(f"spool {spans:>6} spans: "
              f"{row['spool_spans_per_s']:>9,.0f} spans/s spooled, "
              f"dump {row['dump_bytes'] / 1024:.0f} KiB, "
              f"seal {row['seal_ms']:.1f} ms, load {row['load_ms']:.1f} ms")

    config = {"clients": clients, "rounds": rounds, "burst": burst,
              "seed": args.seed}
    floors = {"trace_delta_pct": ceiling, "flight_spans_recovered": 1}
    failures = []
    if delta_pct > ceiling:
        failures.append(f"tracing costs {delta_pct:.1f}% submissions/s > "
                        f"ceiling {ceiling:.0f}%")
    for row in rows:
        # The floor is the recovered fraction: every spooled span.
        if (row["cell"] == "flight" and row["spans_recovered"]
                < row["spans_fed"] * floors["flight_spans_recovered"]):
            failures.append(f"spool of {row['spans_fed']} spans recovered "
                            f"only {row['spans_recovered']}")
    return finish(args, "obs", config, floors, rows, failures)


if __name__ == "__main__":
    sys.exit(main())

"""Simulator substrate throughput.

Not a paper figure — an engineering number for this reproduction: how
many discrete events per second the substrate processes, and what one
EveryWare message round trip costs end-to-end (encode, route, deliver,
decode, reply). These bound how large an SC98-style scenario a given
machine can replay.

The workload sizes honor ``REPRO_BENCH_EVENTS`` / ``REPRO_BENCH_ROUNDTRIPS``
so the CI perf smoke can run reduced-N. With ``REPRO_PERF_STRICT=1`` each
bench also fails if its throughput regresses more than 30% below the
committed ``BENCH_engine.json`` baseline (rates are size-independent, so
reduced-N runs compare against the same baseline).
"""

import os

import perfjson
from conftest import save_artifact
from workloads import (
    N_ROUNDTRIPS,
    N_TIMEOUT_EVENTS,
    run_message_pingpong,
    run_timeout_storm,
)

N_EVENTS = int(os.environ.get("REPRO_BENCH_EVENTS", N_TIMEOUT_EVENTS))
N_CYCLES = int(os.environ.get("REPRO_BENCH_ROUNDTRIPS", N_ROUNDTRIPS))
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "3"))
STRICT = os.environ.get("REPRO_PERF_STRICT") == "1"


def _maybe_enforce_baseline(workload: str, rate: float) -> None:
    if not STRICT:
        return
    problem = perfjson.check_regression(perfjson.ENGINE_JSON, workload, rate)
    assert problem is None, problem


def test_engine_event_throughput(benchmark, artifact_dir):
    benchmark.pedantic(run_timeout_storm, args=(N_EVENTS,),
                       rounds=ROUNDS, iterations=1, warmup_rounds=1)
    events_per_sec = N_EVENTS / benchmark.stats["median"]
    best = N_EVENTS / benchmark.stats["min"]
    lines = [
        "Simulator throughput on this machine:",
        f"  bare timer events : {events_per_sec:,.0f} events/s median, "
        f"{best:,.0f} best ({N_EVENTS:,} events x {ROUNDS} rounds)",
    ]
    save_artifact(artifact_dir, "engine_throughput.txt", "\n".join(lines))
    assert events_per_sec > 10_000  # sanity floor, generous for any machine
    _maybe_enforce_baseline("timeout_storm", events_per_sec)


def test_message_roundtrip_throughput(benchmark, artifact_dir):
    benchmark.pedantic(run_message_pingpong, args=(N_CYCLES,),
                       rounds=ROUNDS, iterations=1, warmup_rounds=1)
    per_sec = N_CYCLES / benchmark.stats["median"]
    lines = [
        "Full lingua-franca round trips through the simulated network:",
        f"  {per_sec:,.0f} request/response cycles per wall second "
        f"({N_CYCLES:,} cycles x {ROUNDS} rounds, every one through the "
        "real codec)",
    ]
    save_artifact(artifact_dir, "message_throughput.txt", "\n".join(lines))
    _maybe_enforce_baseline("message_pingpong", per_sec)

"""Refresh the repo-root ``BENCH_explore.json`` model-exploration curves.

Usage (from the repository root)::

    python benchmarks/bench_explore.py
    python benchmarks/bench_explore.py --quick --check

Benchmarks the EMEWS-style :class:`ExploreQueue` against a real gateway
process (the live gateway node's stack ``repro explore`` deploys:
``GatewayComponent`` on a ``FileJournal`` under ``NetDriver``; see
``common.py``; the child also executes evaluation units in its step
loop, so results flow back):

* a **push** cell — one ``POST /jobs`` per task versus one ``POST
  /jobs/batch`` for the whole generation, quantifying the journal-flush
  amortization (``specs/s`` single vs batch, speedup);
* a **pump** cell — sustained ME throughput: waves of evaluations
  pushed and popped through the queue; tasks/s and submit→pop p50/p99;
* a **storm** cell — the same pump while a :class:`GatewayStorm` of
  synthetic HTTP users hammers the same gateway (the ME must hold up on
  a *shared* control plane, not a private one);
* an **me** cell — a full :class:`HillClimber` round trip via
  :func:`run_driver` (generations of dependent batches), wall seconds
  per generation;
* a **sim** row — the deterministic twin run twice, byte-identical.

The gate (``--check``) asserts the acceptance floors: pump tasks/s,
submit→pop p99, batch speedup >= 2, and sim byte-determinism.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

from common import (GatewayProcess, bench_parser, finish, free_port,
                    percentile)

#: Acceptance floors (see --check).
PUMP_TASKS_PER_S_FLOOR = 200.0
POP_P99_MS_CEILING = 500.0
BATCH_SPEEDUP_FLOOR = 2.0


def _specs(n: int, seed: int) -> list[dict]:
    from repro.explore import make_eval_spec

    return [make_eval_spec("sphere", {"x": i * 0.01, "y": -i * 0.02},
                           seed=seed, tag={"i": i})
            for i in range(n)]


def _push_cell(port: int, n: int, seed: int) -> dict:
    """Single POST /jobs per spec vs one POST /jobs/batch: the journal
    flush amortization, measured as accepted specs per second."""
    from repro.control import GatewayClient

    with GatewayClient(f"127.0.0.1:{port}", timeout=5.0) as client:
        specs = _specs(n, seed)
        t0 = time.monotonic()
        single_ids = [str(client.submit(spec)["id"]) for spec in specs]
        single_s = time.monotonic() - t0

        specs = _specs(n, seed + 1)
        t0 = time.monotonic()
        batch_ids = client.submit_batch(specs)
        batch_s = time.monotonic() - t0
    assert len(single_ids) == n and len(batch_ids) == n
    return {
        "cell": "push",
        "tasks": n,
        "single_s": round(single_s, 4),
        "batch_s": round(batch_s, 4),
        "single_specs_per_s": round(n / single_s, 1),
        "batch_specs_per_s": round(n / batch_s, 1),
        "batch_speedup": round(single_s / batch_s, 2),
    }


def _pump_cell(port: int, tasks: int, wave: int, seed: int,
               storm_clients: int = 0) -> dict:
    """Sustained ME throughput: push in waves, pop until drained.
    With ``storm_clients`` > 0 a synthetic HTTP storm shares the
    gateway for the whole cell."""
    from repro.control import GatewayClient, GatewayStorm
    from repro.explore import ExploreQueue

    storm = None
    if storm_clients:
        storm = GatewayStorm("127.0.0.1", port, clients=storm_clients,
                             seed=seed + 99)
    try:
        pump = (lambda: storm.step(0.001)) if storm is not None else None
        queue = ExploreQueue(
            GatewayClient(f"127.0.0.1:{port}", timeout=5.0),
            batch=True, poll=0.002, pump=pump)
        try:
            remaining = list(_specs(tasks, seed))
            t0 = time.monotonic()
            while remaining or queue.outstanding:
                if remaining and len(queue.outstanding) < wave:
                    queue.push_tasks(remaining[:wave])
                    del remaining[:wave]
                queue.pop_results(min_results=1, timeout=30.0)
            elapsed = time.monotonic() - t0
            stats = queue.stats()
        finally:
            queue.client.close()
    finally:
        if storm is not None:
            storm.quiesce(grace=2.0)
            storm.close()
    row = {
        "cell": "storm" if storm_clients else "pump",
        "tasks": tasks,
        "wave": wave,
        "duration_s": round(elapsed, 3),
        "tasks_per_s": round(tasks / elapsed, 1),
        "pop_p50_ms": round(
            percentile(queue.pop_latencies_ms, 0.50), 2),
        "pop_p99_ms": round(
            percentile(queue.pop_latencies_ms, 0.99), 2),
        "popped": stats["popped"],
    }
    if storm_clients:
        row["storm_clients"] = storm_clients
    return row


def _me_cell(port: int, seed: int, scale: float) -> dict:
    """A full iterative-ME round trip: HillClimber generations of
    dependent batches through the queue."""
    from repro.control import GatewayClient
    from repro.explore import ExploreQueue, make_driver, run_driver

    driver = make_driver("hill", seed=seed, fn="forecast",
                         ops_budget=1_000.0, scale=scale)
    queue = ExploreQueue(GatewayClient(f"127.0.0.1:{port}", timeout=5.0),
                         batch=True, poll=0.002)
    try:
        summary = run_driver(driver, queue, timeout=120.0, poll_timeout=10.0)
    finally:
        queue.client.close()
    rounds = len(summary.get("rounds") or ())
    return {
        "cell": "me",
        "algo": "hill",
        "evals": summary["evals"],
        "generations": summary.get("generations"),
        "duration_s": round(summary["elapsed"], 3),
        "evals_per_s": round(summary["evals"] / summary["elapsed"], 1),
        "s_per_generation": (round(summary["elapsed"] / rounds, 3)
                             if rounds else None),
        "timed_out": summary["timed_out"],
    }


def _sim_cell(seed: int) -> dict:
    """The deterministic twin, run twice: byte-identical or bust."""
    from repro.control import Scenario, run_scenario

    scenario = Scenario(seed=seed, algo="hill", clients=3, duration=240.0,
                        scale=0.5, fault_at=5.0, corrupt=1)
    t0 = time.monotonic()
    a = run_scenario(scenario)
    one = time.monotonic() - t0
    b = run_scenario(scenario)
    identical = (json.dumps(a, sort_keys=True)
                 == json.dumps(b, sort_keys=True))
    return {
        "cell": "sim",
        "evals": a["driver"]["evals"],
        "violations": len(a["violations"]),
        "results_rejected": a["gateway"]["work"]["results_rejected"],
        "restarts": a["gateway"]["restarts"],
        "byte_identical": identical,
        "wall_s": round(one, 3),
    }


def check(rows: list[dict]) -> list[str]:
    cells = {row["cell"]: row for row in rows}
    pump, push, sim = cells["pump"], cells["push"], cells["sim"]
    failures = []
    if pump["tasks_per_s"] < PUMP_TASKS_PER_S_FLOOR:
        failures.append(f"pump tasks/s {pump['tasks_per_s']:,.1f} < "
                        f"floor {PUMP_TASKS_PER_S_FLOOR:,.1f}")
    if pump["pop_p99_ms"] > POP_P99_MS_CEILING:
        failures.append(f"pop p99 {pump['pop_p99_ms']:.1f} ms > "
                        f"ceiling {POP_P99_MS_CEILING:.1f} ms")
    if push["batch_speedup"] < BATCH_SPEEDUP_FLOOR:
        failures.append(f"batch speedup {push['batch_speedup']:.2f}x < "
                        f"floor {BATCH_SPEEDUP_FLOOR:.2f}x")
    if not sim["byte_identical"]:
        failures.append("sim twin runs were not byte-identical")
    if sim["violations"]:
        failures.append(f"sim twin reported {sim['violations']} violation(s)")
    if cells["me"]["timed_out"]:
        failures.append("hill-climber round trip timed out")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = bench_parser(__doc__, "explore")
    parser.add_argument("--tasks", type=int, default=400,
                        help="evaluations in the push/pump/storm cells")
    parser.add_argument("--wave", type=int, default=50,
                        help="max outstanding evaluations while pumping")
    parser.add_argument("--storm", type=int, default=50,
                        help="synthetic HTTP users in the storm cell")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="HillClimber scale in the me cell")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    tasks, storm, scale = args.tasks, args.storm, args.scale
    if args.quick:
        tasks = min(tasks, 120)
        storm = min(storm, 20)
        scale = min(scale, 0.5)

    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-ex-") as tmp:
        def gateway(name: str) -> GatewayProcess:
            return GatewayProcess(free_port(), os.path.join(tmp, name),
                                  execute=True)

        with gateway("push.jsonl") as gw:
            rows.append(_push_cell(gw.port, tasks, seed=args.seed))
        print(f"push  {tasks:>5} specs: single "
              f"{rows[-1]['single_specs_per_s']:>8,.0f}/s, batch "
              f"{rows[-1]['batch_specs_per_s']:>8,.0f}/s "
              f"({rows[-1]['batch_speedup']:.1f}x)")

        with gateway("pump.jsonl") as gw:
            rows.append(_pump_cell(gw.port, tasks, args.wave,
                                   seed=args.seed + 1))
        print(f"pump  {tasks:>5} evals: "
              f"{rows[-1]['tasks_per_s']:>8,.1f} tasks/s, "
              f"pop p99 {rows[-1]['pop_p99_ms']:.1f} ms")

        with gateway("storm.jsonl") as gw:
            rows.append(_pump_cell(gw.port, tasks, args.wave,
                                   seed=args.seed + 2,
                                   storm_clients=storm))
        print(f"storm {tasks:>5} evals + {storm} HTTP users: "
              f"{rows[-1]['tasks_per_s']:>8,.1f} tasks/s, "
              f"pop p99 {rows[-1]['pop_p99_ms']:.1f} ms")

        with gateway("me.jsonl") as gw:
            rows.append(_me_cell(gw.port, seed=args.seed + 3, scale=scale))
        print(f"me    {rows[-1]['evals']:>5} evals over "
              f"{rows[-1]['generations']} generations: "
              f"{rows[-1]['duration_s']:.2f}s "
              f"({rows[-1]['s_per_generation']}s/generation)")

    rows.append(_sim_cell(seed=args.seed + 4))
    print(f"sim   {rows[-1]['evals']:>5} evals: byte_identical="
          f"{rows[-1]['byte_identical']}, "
          f"{rows[-1]['results_rejected']} rejected, "
          f"{rows[-1]['restarts']} restart(s)")

    config = {"tasks": tasks, "wave": args.wave, "storm": storm,
              "scale": scale, "seed": args.seed}
    floors = {"pump_tasks_per_s": PUMP_TASKS_PER_S_FLOOR,
              "pop_p99_ms": POP_P99_MS_CEILING,
              "batch_speedup": BATCH_SPEEDUP_FLOOR,
              "sim_byte_identical": True}
    return finish(args, "explore", config, floors, rows, check(rows))


if __name__ == "__main__":
    sys.exit(main())

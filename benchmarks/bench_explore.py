"""Refresh the repo-root ``BENCH_explore.json`` model-exploration curves.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/bench_explore.py
    PYTHONPATH=src python benchmarks/bench_explore.py --quick --check

Benchmarks the EMEWS-style :class:`ExploreQueue` against a real gateway
process (the same ``HttpServer`` + ``GatewayCore`` + journal-backed
``WorkQueue`` stack ``repro explore`` deploys; the child also executes
evaluation units in its step loop, so results flow back):

* a **push** cell — one ``POST /jobs`` per task versus one ``POST
  /jobs/batch`` for the whole generation, quantifying the journal-flush
  amortization (satellite: ``specs/s`` single vs batch, speedup);
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
submit→pop p99, batch speedup >= 1, and sim byte-determinism.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

EXPLORE_JSON = HERE.parent / "BENCH_explore.json"

#: Acceptance floors (see --check).
PUMP_TASKS_PER_S_FLOOR = 200.0
POP_P99_MS_CEILING = 500.0
BATCH_SPEEDUP_FLOOR = 2.0


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[idx]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _serve_child(port: int, journal_path: str) -> int:
    """Child mode: one gateway process that also *executes* evaluation
    units between IO steps — a miniature one-process grid, so the bench
    measures the queue machinery rather than worker placement."""
    from repro.control import (FileJournal, GatewayCore, HttpServer,
                               WorkQueue, render_payload)
    from repro.core.services.kinds import registry
    from repro.explore.evals import execute_unit

    work = WorkQueue(journal=FileJournal(journal_path), prefix="bench-ex")
    work.clock = time.monotonic
    core = GatewayCore("bench-ex-gw", work, started_at=time.monotonic())

    def app(request):
        status, payload, route = core.handle(
            request.method, request.path, request.body, time.monotonic())
        return render_payload(status, payload, route, close=request.close)

    last: Exception | None = None
    for _ in range(100):
        try:
            server = HttpServer("127.0.0.1", port, app)
            break
        except OSError as exc:
            last = exc
            time.sleep(0.05)
    else:
        raise SystemExit(f"gateway bind failed: {last}")
    while True:
        server.step(0.002)
        for _ in range(64):  # drain a bounded burst of work per IO step
            unit = work.next_unit()
            if unit is None:
                break
            kind = registry.kind_of(unit)
            if kind == "explore.eval":
                work.complete(str(unit["id"]), execute_unit(unit))
            else:  # push cells submit inert specs; finish them trivially
                work.complete(str(unit["id"]), {"bench": True})


class GatewayProcess:
    """Spawn one executing-gateway child on a fixed port + journal."""

    def __init__(self, port: int, journal: str) -> None:
        self.port = port
        self.journal = journal
        self.proc: subprocess.Popen | None = None

    def spawn(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "bench_explore.py"),
             "--_serve", str(self.port), self.journal],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def wait_healthy(self, timeout: float = 15.0) -> None:
        from repro.control import GatewayClient, HttpError

        deadline = time.monotonic() + timeout
        with GatewayClient(f"127.0.0.1:{self.port}", timeout=2.0) as probe:
            while time.monotonic() < deadline:
                try:
                    probe.health()
                    return
                except HttpError:
                    time.sleep(0.1)
        raise RuntimeError("gateway never became healthy")

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()

    def __enter__(self) -> "GatewayProcess":
        self.spawn()
        self.wait_healthy()
        return self

    def __exit__(self, *exc) -> None:
        self.kill()


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
            _percentile(queue.pop_latencies_ms, 0.50), 2),
        "pop_p99_ms": round(
            _percentile(queue.pop_latencies_ms, 0.99), 2),
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
    from repro.explore import run_sim_explore

    t0 = time.monotonic()
    a = run_sim_explore(seed=seed, algo="hill", duration=240.0, scale=0.5,
                        restart_after=5.0, corrupt_first=1)
    one = time.monotonic() - t0
    b = run_sim_explore(seed=seed, algo="hill", duration=240.0, scale=0.5,
                        restart_after=5.0, corrupt_first=1)
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tasks", type=int, default=400,
                        help="evaluations in the push/pump/storm cells")
    parser.add_argument("--wave", type=int, default=50,
                        help="max outstanding evaluations while pumping")
    parser.add_argument("--storm", type=int, default=50,
                        help="synthetic HTTP users in the storm cell")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="HillClimber scale in the me cell")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small cells (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the acceptance floors hold")
    parser.add_argument("--out", type=str, default=str(EXPLORE_JSON))
    parser.add_argument("--_serve", nargs=2, metavar=("PORT", "JOURNAL"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args._serve:
        return _serve_child(int(args._serve[0]), args._serve[1])

    tasks, storm, scale = args.tasks, args.storm, args.scale
    if args.quick:
        tasks = min(tasks, 120)
        storm = min(storm, 20)
        scale = min(scale, 0.5)

    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-ex-") as tmp:
        port = _free_port()
        with GatewayProcess(port, os.path.join(tmp, "push.jsonl")):
            rows.append(_push_cell(port, tasks, seed=args.seed))
        print(f"push  {tasks:>5} specs: single "
              f"{rows[-1]['single_specs_per_s']:>8,.0f}/s, batch "
              f"{rows[-1]['batch_specs_per_s']:>8,.0f}/s "
              f"({rows[-1]['batch_speedup']:.1f}x)")

        port = _free_port()
        with GatewayProcess(port, os.path.join(tmp, "pump.jsonl")):
            rows.append(_pump_cell(port, tasks, args.wave,
                                   seed=args.seed + 1))
        print(f"pump  {tasks:>5} evals: "
              f"{rows[-1]['tasks_per_s']:>8,.1f} tasks/s, "
              f"pop p99 {rows[-1]['pop_p99_ms']:.1f} ms")

        port = _free_port()
        with GatewayProcess(port, os.path.join(tmp, "storm.jsonl")):
            rows.append(_pump_cell(port, tasks, args.wave,
                                   seed=args.seed + 2,
                                   storm_clients=storm))
        print(f"storm {tasks:>5} evals + {storm} HTTP users: "
              f"{rows[-1]['tasks_per_s']:>8,.1f} tasks/s, "
              f"pop p99 {rows[-1]['pop_p99_ms']:.1f} ms")

        port = _free_port()
        with GatewayProcess(port, os.path.join(tmp, "me.jsonl")):
            rows.append(_me_cell(port, seed=args.seed + 3, scale=scale))
        print(f"me    {rows[-1]['evals']:>5} evals over "
              f"{rows[-1]['generations']} generations: "
              f"{rows[-1]['duration_s']:.2f}s "
              f"({rows[-1]['s_per_generation']}s/generation)")

    rows.append(_sim_cell(seed=args.seed + 4))
    print(f"sim   {rows[-1]['evals']:>5} evals: byte_identical="
          f"{rows[-1]['byte_identical']}, "
          f"{rows[-1]['results_rejected']} rejected, "
          f"{rows[-1]['restarts']} restart(s)")

    report = {
        "bench": "explore",
        "floors": {
            "pump_tasks_per_s": PUMP_TASKS_PER_S_FLOOR,
            "pop_p99_ms": POP_P99_MS_CEILING,
            "batch_speedup": BATCH_SPEEDUP_FLOOR,
            "sim_byte_identical": True,
        },
        "rows": rows,
        "host_cpus": os.cpu_count(),
    }
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote: {out_path}")

    if args.check:
        pump_row = next(r for r in rows if r["cell"] == "pump")
        push_row = next(r for r in rows if r["cell"] == "push")
        sim_row = next(r for r in rows if r["cell"] == "sim")
        me_row = next(r for r in rows if r["cell"] == "me")
        failures = []
        if pump_row["tasks_per_s"] < PUMP_TASKS_PER_S_FLOOR:
            failures.append(
                f"pump tasks/s {pump_row['tasks_per_s']:,.1f} < "
                f"floor {PUMP_TASKS_PER_S_FLOOR:,.1f}")
        if pump_row["pop_p99_ms"] > POP_P99_MS_CEILING:
            failures.append(
                f"pop p99 {pump_row['pop_p99_ms']:.1f} ms > "
                f"ceiling {POP_P99_MS_CEILING:.1f} ms")
        if push_row["batch_speedup"] < BATCH_SPEEDUP_FLOOR:
            failures.append(
                f"batch speedup {push_row['batch_speedup']:.2f}x < "
                f"floor {BATCH_SPEEDUP_FLOOR:.2f}x")
        if not sim_row["byte_identical"]:
            failures.append("sim twin runs were not byte-identical")
        if sim_row["violations"]:
            failures.append(
                f"sim twin reported {sim_row['violations']} violation(s)")
        if me_row["timed_out"]:
            failures.append("hill-climber round trip timed out")
        if failures:
            print("CHECK FAILED: " + "; ".join(failures))
            return 1
        print("check: OK (floors hold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

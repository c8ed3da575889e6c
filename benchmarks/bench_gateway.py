"""Refresh the repo-root ``BENCH_gateway.json`` control-plane curves.

Usage (from the repository root)::

    python benchmarks/bench_gateway.py
    python benchmarks/bench_gateway.py --quick --check

Benchmarks the HTTP/JSON job gateway as its own OS process (the live
gateway node's stack ``repro serve`` deploys: ``GatewayComponent`` on a
``FileJournal`` under ``NetDriver``, its HTTP on the driver's stream
listener; see ``common.py``) under a :class:`GatewayStorm` of
concurrent keep-alive HTTP users:

* **steady** cells — sustained submissions/s and query p50/p99 at each
  client count (the top cell is the 1,000-concurrent-user claim);
* a **churn** cell — every storm connection reconnects after a handful
  of responses, so accept/close machinery is on the hot path;
* a **kill-restart** cell — 200 users storm the gateway, which is
  SIGKILLed mid-storm and respawned on the same port and journal; after
  the storm, every job id it ever answered 201 for must still be known
  (requeued, not lost). It is 200 users in ``--quick`` runs too.

The gate (``--check``) asserts the acceptance floors at the top cell:
sustained submissions/s, query p99, and zero lost jobs across the kill.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

from common import (GatewayProcess, bench_parser, finish, free_port,
                    percentile)

#: Acceptance floors for the top steady cell (see --check).
SUBMISSIONS_PER_S_FLOOR = 500.0
QUERY_P99_MS_CEILING = 250.0
#: Storm users in the kill-restart cell.
KILL_CLIENTS = 200


def _storm_cell(port: int, clients: int, duration: float, seed: int,
                churn_every: int = 0,
                kill_restart: bool = False,
                gateway: GatewayProcess | None = None) -> dict:
    from repro.control import GatewayClient, GatewayStorm, HttpError

    storm = GatewayStorm("127.0.0.1", port, clients=clients, seed=seed,
                         churn_every=churn_every)
    killed_at = None
    try:
        t0 = time.monotonic()
        while time.monotonic() - t0 < duration:
            storm.step(0.005)
            if (kill_restart and killed_at is None
                    and time.monotonic() - t0 >= duration / 3):
                gateway.kill()
                killed_at = time.monotonic() - t0
                gateway.spawn()  # same port, same journal
        storm.quiesce(grace=3.0)
        elapsed = time.monotonic() - t0
        stats = storm.stats
        row = {
            "cell": ("kill-restart" if kill_restart
                     else "churn" if churn_every else "steady"),
            "clients": clients,
            "duration_s": round(elapsed, 3),
            "submitted": stats.submitted,
            "queried": stats.queried,
            "cancelled": stats.cancelled,
            "rejected": stats.rejected,
            "errors": stats.errors,
            "reconnects": stats.reconnects,
            "accepted": len(storm.accepted),
            "submissions_per_s": round(stats.submitted / elapsed, 1),
            "requests_per_s": round(
                (stats.submitted + stats.queried + stats.cancelled)
                / elapsed, 1),
            "submit_p50_ms": round(
                percentile(stats.submit_latencies, 0.50), 2),
            "submit_p99_ms": round(
                percentile(stats.submit_latencies, 0.99), 2),
            "query_p50_ms": round(
                percentile(stats.query_latencies, 0.50), 2),
            "query_p99_ms": round(
                percentile(stats.query_latencies, 0.99), 2),
        }
        if kill_restart:
            gateway.wait_healthy()
            lost = []
            with GatewayClient(f"127.0.0.1:{port}", timeout=3.0) as client:
                for job_id in storm.accepted:
                    try:
                        job = client.job(job_id)
                    except HttpError:
                        job = None
                    if job is None:
                        lost.append(job_id)
            row["killed_at_s"] = round(killed_at, 3)
            row["jobs_lost"] = len(lost)
        return row
    finally:
        storm.close()


def check(rows: list[dict]) -> list[str]:
    top = max((r for r in rows if r["cell"] == "steady"),
              key=lambda r: r["clients"])
    kill = next(r for r in rows if r["cell"] == "kill-restart")
    failures = []
    if top["submissions_per_s"] < SUBMISSIONS_PER_S_FLOOR:
        failures.append(f"submissions/s {top['submissions_per_s']:,.0f} < "
                        f"floor {SUBMISSIONS_PER_S_FLOOR:,.0f}")
    if top["query_p99_ms"] > QUERY_P99_MS_CEILING:
        failures.append(f"query p99 {top['query_p99_ms']:.1f} ms > "
                        f"ceiling {QUERY_P99_MS_CEILING:.1f} ms")
    if kill["jobs_lost"] != 0:
        failures.append(f"{kill['jobs_lost']} accepted job(s) lost across "
                        f"the kill/restart")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = bench_parser(__doc__, "gateway")
    parser.add_argument("--clients", type=str, default="100,1000",
                        help="comma-separated storm client counts")
    parser.add_argument("--duration", type=float, default=4.0,
                        help="measured seconds per cell")
    parser.add_argument("--churn-every", type=int, default=10,
                        help="responses per connection in the churn cell")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    counts = tuple(int(c) for c in args.clients.split(","))
    duration = args.duration
    if args.quick:
        counts = tuple(c for c in counts if c <= 200) or (100,)
        duration = min(duration, 2.0)
    top = max(counts)

    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-gw-") as tmp:
        for i, clients in enumerate(counts):
            port = free_port()
            journal = os.path.join(tmp, f"steady-{clients}.jsonl")
            with GatewayProcess(port, journal):
                rows.append(_storm_cell(port, clients, duration,
                                        seed=args.seed + i))
            print(f"steady {clients:>5} clients: "
                  f"{rows[-1]['submissions_per_s']:>8,.0f} submissions/s, "
                  f"query p99 {rows[-1]['query_p99_ms']:.1f} ms")

        port = free_port()
        with GatewayProcess(port, os.path.join(tmp, "churn.jsonl")):
            rows.append(_storm_cell(port, top, duration, seed=args.seed + 7,
                                    churn_every=args.churn_every))
        print(f"churn  {top:>5} clients: "
              f"{rows[-1]['submissions_per_s']:>8,.0f} submissions/s "
              f"({rows[-1]['reconnects']} reconnects)")

        port = free_port()
        with GatewayProcess(port, os.path.join(tmp, "kill.jsonl")) as gateway:
            rows.append(_storm_cell(
                port, KILL_CLIENTS, max(duration, 3.0),
                seed=args.seed + 13, kill_restart=True, gateway=gateway))
        print(f"kill-restart: {rows[-1]['accepted']} accepted, "
              f"{rows[-1]['jobs_lost']} lost across SIGKILL at "
              f"t={rows[-1]['killed_at_s']:.1f}s")

    config = {"clients": list(counts), "duration": duration,
              "churn_every": args.churn_every, "seed": args.seed}
    floors = {"submissions_per_s": SUBMISSIONS_PER_S_FLOOR,
              "query_p99_ms": QUERY_P99_MS_CEILING, "jobs_lost": 0}
    return finish(args, "gateway", config, floors, rows, check(rows))


if __name__ == "__main__":
    sys.exit(main())

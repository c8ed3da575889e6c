"""Refresh the repo-root ``BENCH_gossip.json`` pool-scale curves.

Usage (from the repository root)::

    python benchmarks/bench_gossip.py
    python benchmarks/bench_gossip.py --quick --check

Exercises the digest/delta anti-entropy sync plane (DESIGN §15) on
:mod:`repro.experiments.bigpool` worlds:

* **convergence** cells — a pre-converged pool takes one fresh write;
  measured: sync rounds until every member's digest root agrees again
  (the epidemic-spread claim: O(log pool)), per-node sync bytes per
  round (the flat-cost claim: O(divergence), not O(pool) or O(state)),
  and delivered messages per wall-second;
* **state-size** cells — per-node bytes/round for the digest plane as
  the registered state grows; a converged pool must not pay O(state);
* a **determinism** cell — the 64-host scenario runs twice with the same
  seed and must produce byte-identical state exports;
* a **pool-4096** cell — ``repro pool --hosts 4096 --json`` in a child
  process, which must converge; its peak RSS is the child's own, read
  with ``wait4`` (membership views and the contact list are shared, so a
  member holds O(1) of the pool: about 160 MB on 2 CPUs; 290 MB while
  every member copied the contact list, 1,131 MB when every member kept
  its own views too);
* a **pool-10000** cell (full runs only) — the same at 10,000 hosts,
  about 330 MB and a minute on 2 CPUs; its wall time is recorded, not
  gated.

Speed against the parent commit is the end-to-end suite's job
(``benchmarks/e2e``, workload ``pool_converge``); this script gates the
scale properties of the current tree only.

The gate (``--check``) asserts the acceptance floors: convergence within
``1.5*log2(N) + 4`` rounds at every size, per-node bytes/round at the
largest pool within 1.5x of the 64-host cell, digest bytes staying within
1.5x over the state sweep, the same-seed exports identical, and 4,096
(and, on full runs, 10,000) hosts converging within 450 MB.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

from common import SRC, bench_parser, finish

#: Acceptance floors (see --check).
CONVERGENCE_ROUNDS_FACTOR = 1.5  # rounds <= factor * log2(N) + slack
CONVERGENCE_ROUNDS_SLACK = 4.0
BYTES_FLAT_RATIO = 1.5  # per-node bytes/round, largest pool vs smallest
DIGEST_STATE_RATIO = 1.5  # bytes/node/round, largest state vs smallest
POOL_RSS_MB_CEILING = 450  # child peak RSS converging 4,096 or 10,000 hosts


def _convergence_cell(n_hosts: int, seed: int = 11,
                      warm: float = 30.0) -> dict:
    from repro.experiments.bigpool import (build_pool, inject_write,
                                           run_until_converged)

    wall0 = time.monotonic()
    pool = build_pool(n_hosts=n_hosts, n_sites=min(16, max(n_hosts // 8, 2)),
                      seed=seed)
    pool.run(until=warm)
    base_bytes = sum(g.stats.bytes_sent for g in pool.servers)
    base_rounds = sum(g.stats.digest_rounds for g in pool.servers)
    inject_write(pool)
    result = run_until_converged(pool, deadline=200.0 * math.log2(n_hosts))
    wall = time.monotonic() - wall0
    servers = pool.servers
    n = len(servers)
    rounds = (sum(g.stats.digest_rounds for g in servers) - base_rounds) / n
    spent = sum(g.stats.bytes_sent for g in servers) - base_bytes
    return {
        "cell": "convergence",
        "n_hosts": n_hosts,
        "converged": result["converged"],
        "rounds": round(result["rounds"], 2),
        "sim_time_s": round(result["time"], 1),
        "bytes_per_node_round": round(spent / n / max(rounds, 1.0), 1),
        "events_per_s": round(pool.network.stats.delivered / max(wall, 1e-9)),
        "bytes_saved": sum(g.stats.bytes_saved for g in servers),
        "wall_s": round(wall, 2),
    }


def _steady_bytes(n_hosts: int, n_records: int,
                  horizon: float = 120.0, seed: int = 11) -> float:
    """Per-node sync-plane bytes per round over a converged steady run."""
    from repro.experiments.bigpool import build_pool

    pool = build_pool(n_hosts=n_hosts, n_sites=max(n_hosts // 8, 2),
                      n_records=n_records, seed=seed)
    pool.run(until=horizon)
    servers = pool.servers
    n = len(servers)
    spent = sum(g.stats.bytes_sent for g in servers)
    rounds = sum(g.stats.digest_rounds for g in servers) / n
    return spent / n / max(rounds, 1.0)


def _state_size_cell(n_hosts: int, n_records: int) -> dict:
    return {
        "cell": "state-size",
        "n_hosts": n_hosts,
        "n_records": n_records,
        "digest_bytes_per_node_round": round(
            _steady_bytes(n_hosts, n_records), 1),
    }


def _determinism_cell(n_hosts: int = 64) -> dict:
    from repro.experiments.bigpool import (build_pool, export_json,
                                           inject_write, run_until_converged)

    exports = []
    for _ in range(2):
        pool = build_pool(n_hosts=n_hosts, n_sites=8, seed=23)
        pool.run(until=30.0)
        inject_write(pool)
        run_until_converged(pool, deadline=600.0)
        exports.append(export_json(pool))
    return {
        "cell": "determinism",
        "n_hosts": n_hosts,
        "export_bytes": len(exports[0]),
        "identical": exports[0] == exports[1],
    }


def _pool_cell(n_hosts: int) -> dict:
    """``repro pool`` in a child process; peak RSS as the kernel saw it
    (``wait4`` reports that one child's usage)."""
    wall0 = time.monotonic()
    args = [sys.executable, "-m", "repro", "pool", "--hosts", str(n_hosts),
            "--json"]
    child = subprocess.Popen(args, env={**os.environ, "PYTHONPATH": str(SRC)},
                             stdout=subprocess.PIPE)
    with child.stdout:
        out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, args)
    convergence = json.loads(out)["convergence"]
    return {
        "cell": f"pool-{n_hosts}",
        "n_hosts": n_hosts,
        "converged": convergence["converged"],
        "rounds": convergence["rounds"],
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "wall_s": round(time.monotonic() - wall0, 2),
    }


def check(rows: list[dict]) -> list[str]:
    failures: list[str] = []
    conv = [row for row in rows if row["cell"] == "convergence"]
    for row in [*conv, *(r for r in rows if r["cell"].startswith("pool-"))]:
        if not row["converged"]:
            failures.append(f"{row['n_hosts']} hosts: did not converge")
            continue
        ceiling = (CONVERGENCE_ROUNDS_FACTOR * math.log2(row["n_hosts"])
                   + CONVERGENCE_ROUNDS_SLACK)
        if row["rounds"] > ceiling:
            failures.append(
                f"{row['n_hosts']} hosts: {row['rounds']} rounds "
                f"> {ceiling:.1f} (c*log N)")
    if len(conv) >= 2:
        lo, hi = conv[0], conv[-1]
        ratio = (hi["bytes_per_node_round"]
                 / max(lo["bytes_per_node_round"], 1e-9))
        if ratio > BYTES_FLAT_RATIO:
            failures.append(
                f"bytes/node/round grew {ratio:.2f}x from "
                f"{lo['n_hosts']} to {hi['n_hosts']} hosts "
                f"(ceiling {BYTES_FLAT_RATIO}x)")
    state = [row for row in rows if row["cell"] == "state-size"]
    if len(state) >= 2:
        lo, hi = state[0], state[-1]
        digest_growth = (hi["digest_bytes_per_node_round"]
                         / max(lo["digest_bytes_per_node_round"], 1e-9))
        if digest_growth > DIGEST_STATE_RATIO:
            failures.append(
                f"digest bytes grew {digest_growth:.2f}x over the state "
                f"sweep (ceiling {DIGEST_STATE_RATIO}x)")
    for row in rows:
        if row["cell"] == "determinism" and not row["identical"]:
            failures.append("same-seed runs produced different exports")
        if row["cell"].startswith("pool-"):
            if row["peak_rss_mb"] > POOL_RSS_MB_CEILING:
                failures.append(f"{row['n_hosts']} hosts: child peak RSS "
                                f"{row['peak_rss_mb']:.0f} MB > "
                                f"{POOL_RSS_MB_CEILING} MB")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = bench_parser(__doc__, "gossip")
    args = parser.parse_args(argv)

    sizes = [64, 256] if args.quick else [64, 256, 1024]
    n_records = [32, 128] if args.quick else [32, 128, 512]
    rows: list[dict] = []
    for n in sizes:
        row = _convergence_cell(n)
        rows.append(row)
        print(f"convergence {n:>5} hosts: rounds={row['rounds']} "
              f"bytes/node/round={row['bytes_per_node_round']} "
              f"events/s={row['events_per_s']:,} wall={row['wall_s']}s")
    for records in n_records:
        row = _state_size_cell(64, records)
        rows.append(row)
        print(f"state-size {records:>4} records: "
              f"digest={row['digest_bytes_per_node_round']} bytes/node/round")
    row = _determinism_cell()
    rows.append(row)
    print(f"determinism: identical={row['identical']} "
          f"({row['export_bytes']} export bytes)")
    pool_hosts = [4096] if args.quick else [4096, 10_000]
    for n in pool_hosts:
        row = _pool_cell(n)
        rows.append(row)
        print(f"pool {n} hosts: converged={row['converged']} "
              f"rounds={row['rounds']} peak RSS {row['peak_rss_mb']:.0f} MB, "
              f"wall {row['wall_s']}s")

    config = {"convergence_hosts": sizes, "state_size_hosts": 64,
              "state_size_records": n_records, "determinism_hosts": 64,
              "pool_hosts": pool_hosts}
    floors = {
        "convergence_rounds": f"<= {CONVERGENCE_ROUNDS_FACTOR}*log2(N)"
                              f" + {CONVERGENCE_ROUNDS_SLACK}",
        "bytes_flat_ratio": BYTES_FLAT_RATIO,
        "digest_state_ratio": DIGEST_STATE_RATIO,
        "pool_peak_rss_mb": POOL_RSS_MB_CEILING,
    }
    return finish(args, "gossip", config, floors, rows, check(rows))


if __name__ == "__main__":
    raise SystemExit(main())

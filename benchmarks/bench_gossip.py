"""Refresh the repo-root ``BENCH_gossip.json`` pool-scale curves.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/bench_gossip.py
    PYTHONPATH=src python benchmarks/bench_gossip.py --quick --check
    PYTHONPATH=src python benchmarks/bench_gossip.py --full   # adds 4096

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
  seed and must produce byte-identical state exports.

A full run (no ``--quick``) records speed the way ROADMAP aim 1 asks: if
``src/`` differs from the commit that last refreshed ``BENCH_gossip.json``,
that commit's ``src/`` is extracted under ``benchmarks/out/`` and every
convergence cell is measured in interleaved before/after pairs, each in a
fresh process; the cell records the after-median plus a ``before`` block,
and the report states ``host_cpus``. Both trees must agree on every
deterministic field (rounds, bytes). A shallow clone or an unchanged
``src/`` measures the current tree only.

The gate (``--check``) asserts the acceptance floors: convergence within
``1.5*log2(N) + 4`` rounds at every size, per-node bytes/round at 1,024
hosts within 1.5x of the 64-host cell, digest bytes staying within 1.5x
over the state sweep, and the same-seed exports identical.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tarfile
import time
from typing import Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    # Appended, not prepended: a before-tree put on the path by
    # _cell_in_fresh_process must win over this checkout.
    sys.path.append(str(SRC))

GOSSIP_JSON = ROOT / "BENCH_gossip.json"

#: Interleaved before/after pairs per convergence cell (full runs).
PAIRS = 3
#: Convergence-cell fields that depend on the seed only, never the host.
_DETERMINISTIC = ("converged", "rounds", "sim_time_s",
                  "bytes_per_node_round", "bytes_saved")

#: Acceptance floors (see --check).
CONVERGENCE_ROUNDS_FACTOR = 1.5  # rounds <= factor * log2(N) + slack
CONVERGENCE_ROUNDS_SLACK = 4.0
BYTES_FLAT_RATIO = 1.5  # per-node bytes/round, largest pool vs smallest
DIGEST_STATE_RATIO = 1.5  # bytes/node/round, largest state vs smallest


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


def _before_tree() -> Optional[tuple[str, pathlib.Path]]:
    """``(sha, src dir)`` of the tree behind the committed record, or None
    when it is unreachable or its ``src/`` is what is checked out now."""
    def git(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(("git", "-C", str(ROOT)) + argv,
                              capture_output=True)

    sha = git("log", "-n1", "--format=%H", "--",
              GOSSIP_JSON.name).stdout.decode().strip()
    if not sha or git("diff", "--quiet", sha, "--", "src").returncode != 1:
        return None
    dest = HERE / "out" / f"gossip_before_{sha[:12]}"
    if not (dest / "src" / "repro").is_dir():
        archive = git("archive", sha, "src")
        if archive.returncode != 0:
            return None
        dest.mkdir(parents=True, exist_ok=True)
        tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(dest)
    return sha, dest / "src"


def _cell_in_fresh_process(n_hosts: int, src: pathlib.Path) -> dict:
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; "
            "import bench_gossip; print(json.dumps("
            "bench_gossip._convergence_cell(int(sys.argv[3]))))")
    done = subprocess.run(
        [sys.executable, "-c", code, str(src), str(HERE), str(n_hosts)],
        check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def _interleaved_cell(n_hosts: int, sha: str, before_src: pathlib.Path) -> dict:
    """The after-median convergence cell plus a ``before`` block."""
    before, after = [], []
    for _ in range(PAIRS):
        before.append(_cell_in_fresh_process(n_hosts, before_src))
        after.append(_cell_in_fresh_process(n_hosts, SRC))
    for row in before + after:
        if any(row[k] != after[0][k] for k in _DETERMINISTIC):
            raise SystemExit(f"{n_hosts} hosts: trees disagree on a "
                             f"deterministic field: {row} vs {after[0]}")
    before.sort(key=lambda r: r["wall_s"])
    after.sort(key=lambda r: r["wall_s"])
    row, was = after[PAIRS // 2], before[PAIRS // 2]
    row["before"] = {"tree": sha[:12], "wall_s": was["wall_s"],
                     "events_per_s": was["events_per_s"],
                     "pairs": PAIRS,
                     "source": "interleaved, each run a fresh process"}
    return row


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


def _check(report: dict) -> list[str]:
    failures: list[str] = []
    conv = [row for row in report["cells"] if row["cell"] == "convergence"]
    for row in conv:
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
    state = [row for row in report["cells"] if row["cell"] == "state-size"]
    if len(state) >= 2:
        lo, hi = state[0], state[-1]
        digest_growth = (hi["digest_bytes_per_node_round"]
                         / max(lo["digest_bytes_per_node_round"], 1e-9))
        if digest_growth > DIGEST_STATE_RATIO:
            failures.append(
                f"digest bytes grew {digest_growth:.2f}x over the state "
                f"sweep (ceiling {DIGEST_STATE_RATIO}x)")
    det = [row for row in report["cells"] if row["cell"] == "determinism"]
    for row in det:
        if not row["identical"]:
            failures.append("same-seed runs produced different exports")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small pools only (64/256); skip 1024")
    parser.add_argument("--full", action="store_true",
                        help="add the 4096-host convergence cell")
    parser.add_argument("--check", action="store_true",
                        help="assert acceptance floors after measuring")
    parser.add_argument("--out", type=pathlib.Path, default=GOSSIP_JSON)
    args = parser.parse_args(argv)

    sizes = [64, 256] if args.quick else [64, 256, 1024]
    if args.full:
        sizes.append(4096)
    before = None if args.quick else _before_tree()
    cells: list[dict] = []
    for n in sizes:
        row = (_interleaved_cell(n, *before) if before
               else _convergence_cell(n))
        cells.append(row)
        print(f"convergence {n:>5} hosts: rounds={row['rounds']} "
              f"bytes/node/round={row['bytes_per_node_round']} "
              f"events/s={row['events_per_s']:,} wall={row['wall_s']}s"
              + (f" (before {row['before']['wall_s']}s)" if before else ""))
    state_pool = 64
    for n_records in ([32, 128] if args.quick else [32, 128, 512]):
        row = _state_size_cell(state_pool, n_records)
        cells.append(row)
        print(f"state-size {n_records:>4} records: "
              f"digest={row['digest_bytes_per_node_round']} bytes/node/round")
    det = _determinism_cell()
    cells.append(det)
    print(f"determinism: identical={det['identical']} "
          f"({det['export_bytes']} export bytes)")

    report = {
        "bench": "gossip-pool-scale",
        "host_cpus": os.cpu_count(),
        "floors": {
            "convergence_rounds": f"<= {CONVERGENCE_ROUNDS_FACTOR}*log2(N)"
                                  f" + {CONVERGENCE_ROUNDS_SLACK}",
            "bytes_flat_ratio": BYTES_FLAT_RATIO,
            "digest_state_ratio": DIGEST_STATE_RATIO,
        },
        "cells": cells,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check:
        failures = _check(report)
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print("all gossip floors hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

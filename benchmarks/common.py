"""What the ``bench_*.py`` gate scripts share.

**One bench-file shape.** Every repo-root ``BENCH_*.json`` holds exactly
``{"bench", "host_cpus", "config", "floors", "rows"}``; each row is a
flat dict naming its ``cell``. :func:`finish` writes the file and, under
``--check``, prints each floor failure and sets the exit code.

**One gateway child.** ``python benchmarks/common.py PORT JOURNAL
[--trace] [--execute]`` runs the live gateway node's stack —
``GatewayComponent`` on a ``FileJournal`` under ``NetDriver``, its HTTP
on the driver's stream listener at ``PORT`` — as its own process, until
killed: the ``/events?wait=`` long-poll and ``http.latency_ms`` included.
``--trace`` turns on end-to-end job tracing; ``--execute`` makes the
child run evaluation units between driver steps (a one-process grid, so
a bench measures the queue, not worker placement).
:class:`GatewayProcess` spawns, health-checks, kills and respawns it.
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
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def bench_parser(doc: str, bench: str) -> argparse.ArgumentParser:
    """The flags every gate script takes: ``--quick``, ``--check`` and
    ``--out`` (default: the repo-root ``BENCH_<bench>.json``)."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes (what CI runs)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless every floor holds")
    parser.add_argument("--out", type=pathlib.Path,
                        default=ROOT / f"BENCH_{bench}.json")
    return parser


def finish(args: argparse.Namespace, bench: str, config: dict, floors: dict,
           rows: list[dict], failures: list[str]) -> int:
    """Write the bench file; under ``--check`` report ``failures`` and
    return 1 if there are any."""
    report = {"bench": bench, "host_cpus": os.cpu_count(), "config": config,
              "floors": floors, "rows": rows}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {args.out}")
    if not args.check:
        return 0
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"check: OK ({bench} floors hold)")
    return 0


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def serve_gateway(port: int, journal: str, trace: bool = False,
                  execute: bool = False) -> None:
    """Child mode: one gateway process, pumped until killed."""
    from repro.control import FileJournal, GatewayComponent
    from repro.live.node import _bind_driver

    telemetry = None
    if trace:
        from repro.core.telemetry import Telemetry
        from repro.obs.jobtrace import ID_BLOCK

        telemetry = Telemetry(trace=True, id_base=ID_BLOCK)
    gateway = GatewayComponent("bench", FileJournal(journal))
    # The port may linger briefly after a SIGKILL: bind as a node does.
    driver = _bind_driver(gateway, "127.0.0.1", 0, telemetry, 0.0,
                          stream=f"127.0.0.1:{port}")
    if execute:
        from repro.core.services.kinds import registry
        from repro.explore.evals import execute_unit
    work = gateway.work
    tracer = telemetry.tracer if telemetry is not None else None
    while True:
        driver.step(0.002 if execute else 0.05)
        if tracer is not None:
            # Model a healthy span shipper: everything taken, list bounded.
            tracer.trim(tracer.dropped + len(tracer.spans))
        if not execute:
            continue
        for _ in range(64):  # drain a bounded burst of work per I/O step
            unit = work.next_unit()
            if unit is None:
                break
            if registry.kind_of(unit) == "explore.eval":
                work.complete(str(unit["id"]), execute_unit(unit))
            else:  # push cells submit inert specs; finish them trivially
                work.complete(str(unit["id"]), {"bench": True})


class GatewayProcess:
    """Spawn/kill/respawn one gateway child on a fixed port + journal."""

    def __init__(self, port: int, journal: str, trace: bool = False,
                 execute: bool = False) -> None:
        self.port = port
        self.argv = [sys.executable, str(HERE / "common.py"), str(port),
                     journal]
        if trace:
            self.argv.append("--trace")
        if execute:
            self.argv.append("--execute")
        self.proc: subprocess.Popen | None = None

    def spawn(self) -> None:
        self.proc = subprocess.Popen(self.argv, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)

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


if __name__ == "__main__":
    child = argparse.ArgumentParser(description="one bench gateway child")
    child.add_argument("port", type=int)
    child.add_argument("journal")
    child.add_argument("--trace", action="store_true")
    child.add_argument("--execute", action="store_true")
    opts = child.parse_args()
    serve_gateway(opts.port, opts.journal, opts.trace, opts.execute)

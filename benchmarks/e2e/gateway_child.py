"""The gateway process both control workloads drive.

``HttpServer`` + ``GatewayCore`` + ``WorkQueue`` + ``FileJournal`` on one
reactor, as ``repro serve`` deploys them, plus the smallest possible
grid: between I/O steps the process executes queued units itself
(``explore.eval`` units for real, anything else inertly), so the run
measures the control plane and not worker placement.

The harness owns the ``app`` callable, so it times ``GatewayCore.handle``
and ``render_payload`` directly and serves ``GET /__bench/stats`` (CPU
seconds, peak RSS, replay time, layer spans) without touching the
product's routes. With ``--trace-out`` the layer boundaries below are
wrapped before anything is built.

Prints ``PORT <n>`` once bound; runs until killed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import selectors
import sys
import time

T_START = time.perf_counter()

from repro.control import (FileJournal, GatewayCore, HttpDecoder,  # noqa: E402
                           HttpServer, WorkQueue, json_response,
                           render_payload)
from repro.core.linguafranca.tcp import EventLoop  # noqa: E402
from repro.core.services.kinds import KindRegistry, registry  # noqa: E402
from repro.explore import engine as _engine  # noqa: E402,F401  (registers explore.eval)
from repro.explore.evals import execute_unit  # noqa: E402

from spans import Recorder  # noqa: E402

STATS_PATH = "/__bench/stats"
#: Units executed per I/O step, as ``bench_explore.py --_serve`` does.
UNITS_PER_STEP = 64


def install_tracing(rec: Recorder) -> None:
    """Wrap the control plane's layer boundaries (class attributes)."""
    # One reactor turn; inside it, the time blocked in select() is the
    # gateway waiting for the generator or the wire, not working.
    rec.patch(EventLoop, "step", "tcp.reactor")
    rec.patch(selectors.DefaultSelector, "select", "tcp.reactor.wait")
    rec.patch(HttpDecoder, "next_request", "http.decode")
    rec.patch(WorkQueue, "submit", "workqueue.submit")
    rec.patch(WorkQueue, "submit_batch", "workqueue.submit")
    rec.patch(WorkQueue, "get", "workqueue.read")
    rec.patch(WorkQueue, "next_unit", "workqueue.dispatch")
    rec.patch(WorkQueue, "complete", "workqueue.dispatch")

    rec.patch(FileJournal, "append", "journal.append")
    rec.patch(FileJournal, "append_many", "journal.append")

    # kinds.check is whatever checker the registry hands the work queue.
    rec.name_id("kinds.check")
    checker_for = vars(KindRegistry).get("checker_for")
    if checker_for is None:
        rec.missing.append("KindRegistry.checker_for")
        return
    wrapped: dict = {}

    def traced_checker_for(self, spec):
        check = checker_for(self, spec)
        if check is not None and check not in wrapped:
            wrapped[check] = rec.wrap(check, "kinds.check")
        return wrapped.get(check)
    KindRegistry.checker_for = traced_checker_for


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--journal", required=True)
    parser.add_argument("--trace-out", default=None,
                        help="trace layer boundaries; write spans here "
                             "whenever stats are read")
    args = parser.parse_args(argv)

    rec = None
    if args.trace_out:
        rec = Recorder()
        install_tracing(rec)
    t_imported = time.perf_counter()

    journal_start = (os.path.getsize(args.journal)
                     if os.path.exists(args.journal) else 0)
    work = WorkQueue(journal=FileJournal(args.journal), prefix="e2e")
    t_replayed = time.perf_counter()
    work.clock = time.monotonic
    core = GatewayCore("e2e-gw", work, started_at=time.monotonic())

    def stats() -> bytes:
        doc = {
            "cpu_s": time.process_time(),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "import_s": t_imported - T_START,
            "replay_s": t_replayed - t_imported,
            "journal_bytes": os.path.getsize(args.journal) - journal_start
            if os.path.exists(args.journal) else 0,
            "work": work.stats(),
            "traced": rec is not None,
        }
        if rec is not None:
            doc["layers"] = rec.layers()
            doc["missing"] = rec.missing
            rec.write(args.trace_out)
        return json_response(200, doc)

    handle, render, execute = core.handle, render_payload, execute_unit
    if rec is not None:
        handle = rec.wrap(handle, "gateway.route")
        render = rec.wrap(render, "gateway.render")
        execute = rec.wrap(execute, "explore.eval")

    def app(request):
        if request.path == STATS_PATH:
            return stats()
        status, payload, route = handle(
            request.method, request.path, request.body, time.monotonic())
        return render(status, payload, route, close=request.close)

    server = HttpServer("127.0.0.1", 0, app)
    print(f"PORT {server.address[1]}", flush=True)
    kind_of = registry.kind_of
    while True:
        server.step(0.002)
        for _ in range(UNITS_PER_STEP):
            unit = work.next_unit()
            if unit is None:
                break
            if kind_of(unit) == "explore.eval":
                work.complete(str(unit["id"]), execute(unit))
            else:
                work.complete(str(unit["id"]), {"inert": True})


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the observability smoke scenario and its exports: the
fault → drop → retransmit → give-up → requeue span chain, fault-counter
agreement between chaos stats and telemetry, and byte-identical
same-seed exports."""

import hashlib
import json
import re

import pytest

from repro.cli import main
from repro.core.telemetry import export_chrome_trace
from repro.experiments.observe import ObserveConfig, ObserveWorld, requeue_chains
from repro.experiments.report import render_trace_summary


@pytest.fixture(scope="module")
def world():
    w = ObserveWorld(ObserveConfig())
    w.run()
    return w


def test_requeue_chain_reaches_the_injected_fault(world):
    chains = requeue_chains(world.telemetry)
    assert chains, "no fault->requeue chain extracted"
    chain = chains[0]
    assert chain["client"] == "cli0/cli"
    assert chain["call"] == "call SCH_WORK"
    assert chain["call_outcome"] == "gave-up"
    assert chain["retransmits"] >= 1
    assert chain["drops"] and all(d == "drop dropped_down"
                                  for d in chain["drops"])
    assert chain["faults"] == ["fault crashes cli0"]


def test_work_recovered_after_requeue(world):
    # The doomed client's unit went back to the queue and the scheduler
    # kept the survivor busy.
    assert world.scheduler.stats.units_requeued == 1
    assert world.scheduler.stats.units_assigned >= 2


def test_fault_counters_agree_with_plan_stats(world):
    """Satellite check: chaos reports (FaultPlan.stats) and telemetry
    counters are two views of the same firings."""
    counters = world.telemetry.metrics.counters_matching("fault.")
    fs = world.plan.stats
    assert counters.get("fault.crashes", 0) == fs.crashes == 1
    assert counters.get("fault.reboots", 0) == fs.reboots == 1
    assert counters.get("fault.skipped", 0) == fs.skipped == 0


def test_network_drop_counters_match_stats(world):
    counters = world.telemetry.metrics.counters_matching("net.")
    stats = world.network.stats
    assert counters["net.delivered"] == stats.delivered
    assert counters["net.dropped_down"] == stats.dropped_down


def test_same_seed_exports_are_byte_identical():
    def export():
        w = ObserveWorld(ObserveConfig(duration=180.0))
        report = w.run()
        trace = json.dumps(export_chrome_trace(w.telemetry), sort_keys=True)
        metrics = json.dumps(w.telemetry.snapshot(), sort_keys=True)
        return trace, metrics, json.dumps(report, sort_keys=True)

    assert export() == export()


def test_ci_traced_exports_are_pinned_byte_for_byte(tmp_path):
    """``repro trace --scenario observe --seed 7 --duration 420 --out DIR``
    — what CI's observability-smoke job ran twice and diffed. The trace
    holds every span kind the driver emits (start, recv, send, call,
    timer, retransmit, send-failed), so a pinned digest proves determinism
    *and* that a driver or tracing refactor moved no byte of it."""
    out = tmp_path / "obs"
    assert main(["trace", "--scenario", "observe", "--seed", "7",
                 "--duration", "420", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("trace.json", "metrics.json", "report.json")}
    assert digests == {
        "trace.json":
            "877dbfb6c6a5824a8b0ae0fcea7ed1ebb3808a443bc7c79ba4ba832e720c80f0",
        "metrics.json":
            "b74f003ffe049390bb8ddd61d653dc3e88f6e8f3a097891e3c993d0417595207",
        "report.json":
            "1efbea6e999d176f7da4bebcef84812e027e54acd22c3a7e0871a1625f03d24b",
    }
    chain = json.loads((out / "report.json").read_text())["requeue_chains"][0]
    assert chain["retransmits"] >= 1
    assert chain["faults"]


def test_chrome_export_has_required_keys(world):
    doc = export_chrome_trace(world.telemetry)
    assert doc["traceEvents"]
    for ev in doc["traceEvents"]:
        for key in ("name", "ph", "ts", "pid"):
            assert key in ev


def test_trace_summary_renders(world):
    text = render_trace_summary(world.telemetry)
    assert "Trace summary" in text
    assert "requeue" in text
    assert "faults: crashes=1" in text


def test_untraced_run_keeps_metrics_but_no_spans():
    w = ObserveWorld(ObserveConfig(duration=120.0), trace=False)
    w.run()
    assert w.telemetry.tracer.spans == []
    counters = w.telemetry.metrics.counters_matching("msg.sent")
    assert sum(counters.values()) > 0


def test_cli_trace_writes_exports(tmp_path, capsys):
    out = tmp_path / "obs"
    code = main(["trace", "--scenario", "observe", "--duration", "180",
                 "--out", str(out), "--timeline", "5"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "Trace summary" in captured
    trace = json.loads((out / "trace.json").read_text())
    assert trace["traceEvents"]
    metrics = json.loads((out / "metrics.json").read_text())
    assert "counters" in metrics
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"] == "observe"


@pytest.mark.parametrize("flags", [[], ["--profile-engine"]],
                         ids=["plain", "profile-engine"])
def test_cli_metrics_prints_snapshot(capsys, flags):
    code = main(["metrics", "--scenario", "observe", "--duration", "120",
                 *flags])
    assert code == 0
    out = capsys.readouterr().out
    snapshot, _, table = out.partition("\n\nhandled messages : ")
    snap = json.loads(snapshot)
    assert "counters" in snap and "gauges" in snap
    assert bool(table) == bool(flags)
    if flags:
        # Every handled message is timed, in one row per (component,
        # mtype) cell, e.g. the scheduler's handling of client reports.
        handled = sum(v for k, v in snap["counters"].items()
                      if k.startswith("msg.recv{"))
        assert table.startswith(f"{handled}\n")
        assert "slowest handlers (by total wall time):" in table
        assert re.search(r"^  sched\S*\s+SCH_REPORT\s+calls=[1-9]", table,
                         re.M), table

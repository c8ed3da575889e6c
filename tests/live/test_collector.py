"""Collector ingestion: hello/report protocol, timeline merging of
flight spools, forecast-driven liveness. Messages are injected straight
into the handler — the wire path is covered by the end-to-end smoke
test."""

import pytest

from repro.core.linguafranca.messages import Message
from repro.core.telemetry import Telemetry
from repro.live import Collector
from repro.live.collector import COL_HELLO, COL_REPORT
from repro.obs.flight import FlightRecorder, flight_path, load_flight


@pytest.fixture
def collector():
    col = Collector()
    yield col
    col.close()


def _hello(name, incarnation=0, pid=42):
    return Message(mtype=COL_HELLO, sender="127.0.0.1:1",
                   body={"node": name, "pid": pid,
                         "incarnation": incarnation})


def _report(name, seq, **extra):
    body = {"node": name, "seq": seq, "metrics": {}, "stats": {}}
    body.update(extra)
    return Message(mtype=COL_REPORT, sender="127.0.0.1:1", body=body)


def test_hello_then_reports_accumulate(collector):
    collector._handle(_hello("n1"))
    collector._handle(_report("n1", 1, stats={"records": 3}))
    collector._handle(_report("n1", 2, stats={"records": 9}))
    rec = collector.nodes["n1"]
    assert rec.hellos == 1 and rec.reports == 2
    assert rec.stats == {"records": 9}  # latest wins


def test_duplicate_and_stale_seq_dropped(collector):
    collector._handle(_hello("n1"))
    collector._handle(_report("n1", 1))
    collector._handle(_report("n1", 1))
    collector._handle(_report("n1", 0))
    rec = collector.nodes["n1"]
    assert rec.reports == 1 and rec.duplicate_reports == 2


def test_new_incarnation_resets_sequence_space(collector):
    collector._handle(_hello("n1"))
    collector._handle(_report("n1", 5))
    collector._handle(_hello("n1", incarnation=1))
    collector._handle(_report("n1", 1))  # fresh process starts at 1 again
    rec = collector.nodes["n1"]
    assert rec.reports == 2 and rec.incarnation == 1


def test_spans_and_logs_shift_onto_collector_timeline(collector, tmp_path):
    # Node booted 2 wall seconds after the collector: its t=1.0 is the
    # collector's t=3.0. The spool's header carries that epoch.
    tel = Telemetry(trace=True, id_base=1000)
    rec = FlightRecorder(flight_path(str(tmp_path), "n1", 0), telemetry=tel,
                         node="n1", epoch=collector.epoch + 2.0)
    tel.tracer.finish(tel.tracer.begin("x", component="n1", start=1.0), 1.5)
    rec.observe_log(1.0, "n1", "info", "hi")
    rec.seal("deadline")
    collector.ingest_flight(load_flight(rec.path))
    node = collector.nodes["n1"]
    assert node.spans[0].start == pytest.approx(3.0)
    assert node.spans[0].end == pytest.approx(3.5)
    assert node.logs[0]["t"] == pytest.approx(3.0)
    merged = collector.merged_tracer()
    assert [s.span_id for s in merged.spans] == [node.spans[0].span_id]


def test_merged_metrics_add_counters_across_nodes(collector):
    collector._handle(_hello("a"))
    collector._handle(_hello("b"))
    snap = {"counters": {"msg.sent{mtype=X}": 2}, "gauges": {}, "histograms": {}}
    collector._handle(_report("a", 1, metrics=snap))
    collector._handle(_report("b", 1, metrics=snap))
    merged = collector.merged_metrics()
    assert merged["counters"]["msg.sent{mtype=X}"] == 4


def test_final_report_records_stop_reason(collector):
    collector._handle(_hello("n1"))
    collector._handle(_report("n1", 1, final=True, stop_reason="signal:SIGTERM"))
    rec = collector.nodes["n1"]
    assert rec.final_reports == 1
    assert rec.stop_reason == "signal:SIGTERM"


def test_silent_nodes_is_forecast_driven(collector):
    collector._handle(_hello("chatty"))
    # Teach the forecaster a ~0.1s cadence, then go quiet.
    for seq in range(1, 6):
        collector._handle(_report("chatty", seq))
        collector.nodes["chatty"].last_report = seq * 0.1
        if seq > 1:
            from repro.core.forecasting.benchmarking import event_tag
            collector.forecasts.record(event_tag("chatty", COL_REPORT), 0.1)
    rec = collector.nodes["chatty"]
    rec.last_report = collector.now() - 2.0  # 2s of silence vs 0.1s cadence
    assert "chatty" in collector.silent_nodes(multiplier=6.0, floor=0.1,
                                              ceiling=30.0)
    # A node that announced a final report is never suspect.
    rec.final_reports = 1
    assert collector.silent_nodes(multiplier=6.0, floor=0.1) == []


def test_malformed_messages_counted_not_fatal(collector):
    collector._handle(Message(mtype=COL_REPORT, sender="x", body={}))
    collector._handle(Message(mtype="WHAT", sender="x", body={"node": "n"}))
    collector._handle(_hello("n1"))
    collector._handle(_report("n1", 1))
    collector.ingest_flight({"node": "n1", "epoch": collector.epoch,
                             "spans": [{"nonsense": True}], "logs": []})
    assert collector.bad_messages == 3
    assert collector.nodes["n1"].reports == 1

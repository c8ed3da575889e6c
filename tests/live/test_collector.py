"""Collector ingestion: hello/report protocol, timeline merging of
flight spools, forecast-driven liveness. Messages are injected straight
into the handler; one test sends hostile heartbeats over a socket to
the collector under its driver, and the end-to-end smoke test covers
the rest of the wire path."""

import socket
import time

import pytest

from repro.core.linguafranca.messages import Message
from repro.core.netdriver import NetDriver
from repro.core.telemetry import Telemetry
from repro.live import Collector
from repro.live.collector import COL_HELLO, COL_REPORT
from repro.obs.flight import FlightRecorder, flight_path, load_flight


@pytest.fixture
def collector():
    col = Collector()
    driver = NetDriver(col)
    yield col
    driver.close()


def _feed(collector, message):
    """Hand ``message`` to the collector's handler at its driver's now."""
    collector.on_message(message, collector.now())


def _hello(name, incarnation=0, pid=42):
    return Message(mtype=COL_HELLO, sender="127.0.0.1:1",
                   body={"node": name, "pid": pid,
                         "incarnation": incarnation})


def _report(name, seq, **extra):
    body = {"node": name, "seq": seq, "metrics": {}, "stats": {}}
    body.update(extra)
    return Message(mtype=COL_REPORT, sender="127.0.0.1:1", body=body)


def test_hello_then_reports_accumulate(collector):
    _feed(collector, _hello("n1"))
    _feed(collector, _report("n1", 1, stats={"records": 3}))
    _feed(collector, _report("n1", 2, stats={"records": 9}))
    rec = collector.nodes["n1"]
    assert rec.hellos == 1 and rec.reports == 2
    assert rec.stats == {"records": 9}  # latest wins


def test_duplicate_and_stale_seq_dropped(collector):
    _feed(collector, _hello("n1"))
    _feed(collector, _report("n1", 1))
    _feed(collector, _report("n1", 1))
    _feed(collector, _report("n1", 0))
    rec = collector.nodes["n1"]
    assert rec.reports == 1 and rec.duplicate_reports == 2


def test_new_incarnation_resets_sequence_space(collector):
    _feed(collector, _hello("n1"))
    _feed(collector, _report("n1", 5))
    _feed(collector, _hello("n1", incarnation=1))
    _feed(collector, _report("n1", 1))  # fresh process starts at 1 again
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
    _feed(collector, _hello("a"))
    _feed(collector, _hello("b"))
    snap = {"counters": {"msg.sent{mtype=X}": 2}, "gauges": {}, "histograms": {}}
    _feed(collector, _report("a", 1, metrics=snap))
    _feed(collector, _report("b", 1, metrics=snap))
    merged = collector.merged_metrics()
    assert merged["counters"]["msg.sent{mtype=X}"] == 4


def test_final_report_records_stop_reason(collector):
    _feed(collector, _hello("n1"))
    _feed(collector, _report("n1", 1, final=True,
                             stop_reason="signal:SIGTERM"))
    rec = collector.nodes["n1"]
    assert rec.final_reports == 1
    assert rec.stop_reason == "signal:SIGTERM"


def test_silent_nodes_is_forecast_driven(collector):
    _feed(collector, _hello("chatty"))
    # Teach the forecaster a ~0.1s cadence, then go quiet.
    for seq in range(1, 6):
        _feed(collector, _report("chatty", seq))
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
    _feed(collector, Message(mtype=COL_REPORT, sender="x", body={}))
    _feed(collector, Message(mtype="WHAT", sender="x", body={"node": "n"}))
    _feed(collector, _hello("n1"))
    _feed(collector, _report("n1", 1))
    collector.ingest_flight({"node": "n1", "epoch": collector.epoch,
                             "spans": [{"nonsense": True}], "logs": []})
    assert collector.bad_messages == 3
    assert collector.nodes["n1"].reports == 1


def test_a_heartbeat_that_does_not_parse_moves_nothing(collector):
    _feed(collector, _hello("n1", pid=[]))
    _feed(collector, _report("n1", "x"))
    _feed(collector, _report("n1", 1, incarnation="first"))
    _feed(collector, Message(mtype=COL_HELLO, sender="x", body={"node": 7}))
    assert collector.bad_messages == 4
    assert "n1" not in collector.nodes  # not even a record was made
    _feed(collector, _hello("n1"))
    _feed(collector, _report("n1", 1))
    rec = collector.nodes["n1"]
    assert (rec.hellos, rec.reports, rec.pid) == (1, 1, 42)


def test_hostile_heartbeats_over_a_socket_are_dropped_and_serving_goes_on():
    collector = Collector()
    driver = NetDriver(collector)
    try:
        host, _, port = driver.contact.rpartition(":")
        frames = [_report("n1", "x"), _hello("n1", pid=[]), _report("n1", 1)]
        with socket.create_connection((host, int(port))) as sock:
            sock.sendall(b"".join(m.encode() for m in frames))
            end = time.monotonic() + 5.0
            while "n1" not in collector.nodes and time.monotonic() < end:
                driver.step(0.05)
        assert collector.bad_messages == 2
        rec = collector.nodes["n1"]
        assert (rec.hellos, rec.reports) == (0, 1)
        assert driver.handler_errors == 0
    finally:
        driver.close()

"""Epoch-merge edge cases across process incarnations (DESIGN §14).

A restarted node is a *different* process with its own wall epoch and
sequence space. These tests pin the collector's behaviour on the messy
interleavings real kills produce: heartbeats from a dead life arriving
after the successor's hello, duplicate sequence numbers after a
reconnect resend, and flight spools recovered post-mortem after the
successor is already up. A node's spans and logs reach the collector
only through its incarnation's spool, which carries that life's epoch.
"""

from types import SimpleNamespace

import pytest

from repro.core.linguafranca.messages import Message
from repro.core.netdriver import NetDriver
from repro.core.telemetry import Telemetry
from repro.live import Collector
from repro.live.collector import COL_HELLO, COL_REPORT
from repro.live.supervisor import ManagedNode, Supervisor
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


def _hello(name, incarnation=0):
    return Message(mtype=COL_HELLO, sender="127.0.0.1:1",
                   body={"node": name, "pid": 42, "incarnation": incarnation})


def _report(name, seq, incarnation=0, **extra):
    body = {"node": name, "seq": seq, "incarnation": incarnation,
            "metrics": {}, "stats": {}}
    body.update(extra)
    return Message(mtype=COL_REPORT, sender="127.0.0.1:1", body=body)


def _span(span_id, start, end, name="x", trace_id=7):
    return {"trace_id": trace_id, "span_id": span_id, "parent_id": None,
            "name": name, "component": "n1", "start": start, "end": end,
            "outcome": "ok"}


def _spool(tmp_path, incarnation, epoch, spans=(), logs=(), seal=True):
    """Write node ``n1``'s spool for ``incarnation`` the way a live node
    does (``spans`` are ``(name, start, end)``, ``logs`` ``(t, text)``)
    and return its path."""
    tel = Telemetry(trace=True, id_base=(incarnation + 1) * 1000)
    rec = FlightRecorder(flight_path(str(tmp_path), "n1", incarnation),
                         telemetry=tel, node="n1", incarnation=incarnation,
                         epoch=epoch)
    for name, start, end in spans:
        tel.tracer.finish(tel.tracer.begin(name, component="n1",
                                           start=start), end)
    for t, text in logs:
        rec.observe_log(t, "n1", "info", text)
    if seal:
        rec.seal("deadline")
    else:
        rec.tick()  # a SIGKILL: what was spooled is all there is
        rec.close()
    return rec.path


def test_straggler_from_dead_incarnation_uses_its_own_epoch(collector,
                                                           tmp_path):
    # inc0 booted at collector epoch +1s; inc1 at +10s. inc0's spool is
    # recovered only after inc1 said hello, and a heartbeat from inc0
    # still in flight lands after it too: the spans shift by inc0's
    # epoch — not the successor's — and the heartbeat still counts.
    _feed(collector, _hello("n1", incarnation=0))
    _feed(collector, _report("n1", 1, incarnation=0))
    _feed(collector, _hello("n1", incarnation=1))
    _feed(collector, _report("n1", 2, incarnation=0))
    _feed(collector, _report("n1", 1, incarnation=1))
    collector.ingest_flight(load_flight(_spool(
        tmp_path, 0, collector.epoch + 1.0, spans=[("a", 2.0, 2.5)],
        seal=False)))
    collector.ingest_flight(load_flight(_spool(
        tmp_path, 1, collector.epoch + 10.0, spans=[("b", 2.0, 2.5)])))
    rec = collector.nodes["n1"]
    assert rec.reports == 3  # the straggler was not dropped
    by_name = {s.name: s for s in rec.spans}
    assert by_name["a"].start == pytest.approx(3.0)   # 2.0 + 1.0
    assert by_name["b"].start == pytest.approx(12.0)  # 2.0 + 10.0


def test_duplicate_seq_after_reconnect_dropped_per_incarnation(collector):
    _feed(collector, _hello("n1", incarnation=0))
    _feed(collector, _report("n1", 3, incarnation=0))
    # Reconnect resend: same incarnation, same seq — a duplicate.
    _feed(collector, _report("n1", 3, incarnation=0))
    # But seq 3 from the NEXT incarnation is new data, not a duplicate.
    _feed(collector, _hello("n1", incarnation=1))
    _feed(collector, _report("n1", 3, incarnation=1))
    rec = collector.nodes["n1"]
    assert rec.duplicate_reports == 1
    assert rec.reports == 2 and sorted(rec.metrics_history) == [0, 1]


def test_span_dedup_is_by_id_even_across_paths(collector):
    # A report is a heartbeat, not a span path: spans a report still
    # carries are not merged, so the spool's copy is the only one.
    _feed(collector, _hello("n1", incarnation=0))
    _feed(collector, _report("n1", 1, incarnation=0,
                             spans=[_span(5, 0.0, 0.5)]))
    collector.ingest_flight({"node": "n1", "incarnation": 0,
                             "epoch": collector.epoch,
                             "spans": [_span(5, 0.0, 0.5),
                                       _span(6, 0.6, 0.9)], "logs": []})
    rec = collector.nodes["n1"]
    assert sorted(s.span_id for s in rec.spans) == [5, 6]


def test_flight_dump_after_successor_hello_merges_idempotently(collector,
                                                              tmp_path):
    # inc0 died mid-life, inc1 said hello — THEN the supervisor reaps
    # inc0 and recovers its spool: every span, on inc0's epoch. A second
    # recovery of the same incarnation offers nothing.
    epoch0 = collector.epoch + 2.0
    _feed(collector, _hello("n1", incarnation=0))
    _spool(tmp_path, 0, epoch0, seal=False, spans=[
        ("one", 0.1, 0.2), ("two", 0.3, 0.4), ("last gasp", 0.5, 0.6)])
    _feed(collector, _hello("n1", incarnation=1))

    manifest = SimpleNamespace(topology=SimpleNamespace(nodes=[]))
    sup = Supervisor(manifest, str(tmp_path / "manifest.json"),
                     deadline=1.0, collector=collector)
    node = ManagedNode(name="n1", incarnation=0)
    sup._recover_flight(node)
    sup._recover_flight(node)
    rec = collector.nodes["n1"]
    assert node.flights_recovered == [0]
    assert rec.flight_dumps == 1 and rec.flight_spans == 3
    by_name = {s.name: s for s in rec.spans}
    assert sorted(by_name) == ["last gasp", "one", "two"]
    assert by_name["last gasp"].start == pytest.approx(2.5)  # 0.5 + 2.0


def test_flight_dump_for_unknown_node_creates_record(collector):
    # A node that died before its first report still gets its black box
    # into the merged trace.
    added = collector.ingest_flight({
        "node": "ghost", "incarnation": 0, "epoch": collector.epoch + 1.0,
        "spans": [_span(77, 1.0, 1.5)], "logs": [
            {"t": 1.0, "component": "ghost", "level": "warn", "text": "uh"}],
    })
    assert added == 1
    rec = collector.nodes["ghost"]
    assert rec.spans[0].start == pytest.approx(2.0)
    assert rec.logs[0]["t"] == pytest.approx(2.0)
    assert collector.ingest_flight({"node": "", "spans": []}) == 0
    assert collector.bad_messages == 1


def test_a_spool_is_parsed_before_anything_is_merged(collector):
    # A log line whose "t" is not a number is skipped and counted, as a
    # malformed span is: the rest of the spool still merges, once.
    added = collector.ingest_flight({
        "node": "n1", "epoch": collector.epoch,
        "spans": [_span(5, 0.0, 0.5)], "logs": [{"t": "x", "text": "hi"}]})
    rec = collector.nodes["n1"]
    assert added == 1
    assert (len(rec.spans), len(rec.logs)) == (1, 0)
    assert (rec.flight_dumps, collector.bad_messages) == (1, 1)


@pytest.mark.parametrize("epoch", ["x", None, float("nan"), float("inf"),
                                   10**400, [1.0]], ids=repr)
def test_a_spool_whose_epoch_is_not_a_number_is_refused_whole(collector,
                                                               epoch):
    line = {"t": 1.0, "text": "hi"}
    assert collector.ingest_flight({"node": "n1", "epoch": epoch,
                                    "spans": [_span(5, 0.0, 0.5)],
                                    "logs": [line]}) == 0
    assert "n1" not in collector.nodes
    assert collector.bad_messages == 1


@pytest.mark.parametrize("t", ["x", None, float("nan"), float("-inf"),
                               10**400, {}], ids=repr)
def test_a_log_line_whose_time_is_not_a_finite_number_is_skipped(collector,
                                                                   t):
    collector.ingest_flight({"node": "n1", "epoch": collector.epoch,
                             "logs": [{"t": t, "text": "bad"}, "not a line",
                                      {"t": 2, "text": "good"}]})
    rec = collector.nodes["n1"]
    assert [(d["t"], d["text"]) for d in rec.logs] == [
        (pytest.approx(2.0), "good")]
    assert (rec.flight_dumps, collector.bad_messages) == (1, 2)


def test_log_dedup_between_shipment_and_flight_dump(collector, tmp_path):
    # Log lines travel in the spool alone: one a report still carries
    # is not merged, so the line appears once.
    _feed(collector, _hello("n1", incarnation=0))
    line = {"t": 1.0, "component": "n1", "level": "info", "text": "hi"}
    _feed(collector, _report("n1", 1, incarnation=0, logs=[line]))
    collector.ingest_flight(load_flight(_spool(
        tmp_path, 0, collector.epoch, logs=[(1.0, "hi")])))
    assert [(d["t"], d["text"]) for d in collector.nodes["n1"].logs] == [
        (pytest.approx(1.0), "hi")]

"""Tests for the telemetry layer: metrics registry, tracer, exporters."""

import json

from repro.core.telemetry import (
    MetricsRegistry,
    Span,
    Telemetry,
    TraceContext,
    Tracer,
    export_chrome_trace,
    render_timeline,
)


# -- metrics -----------------------------------------------------------------


def test_counter_get_or_create_and_inc():
    m = MetricsRegistry()
    c = m.counter("msg.sent", mtype="PING")
    c.inc()
    c.inc(2)
    assert m.counter("msg.sent", mtype="PING") is c
    assert c.value == 3
    # Different labels are different counters.
    assert m.counter("msg.sent", mtype="PONG").value == 0


def test_metric_key_label_order_is_canonical():
    m = MetricsRegistry()
    a = m.counter("x", b=1, a=2)
    b = m.counter("x", a=2, b=1)
    assert a is b
    assert a.name == "x{a=2,b=1}"


def test_gauge_set():
    m = MetricsRegistry()
    g = m.gauge("sch.queue_depth", component="sched0")
    g.set(7)
    assert g.value == 7
    g.set(0)
    assert m.gauge("sch.queue_depth", component="sched0").value == 0


def test_histogram_buckets_and_mean():
    m = MetricsRegistry()
    h = m.histogram("rtt", bounds=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count == 4
    assert h.counts == [1, 1, 1, 1]  # one per bucket incl. overflow
    assert h.mean == (0.05 + 0.5 + 5.0 + 50.0) / 4


def test_counters_matching_prefix():
    m = MetricsRegistry()
    m.counter("fault.crashes").inc()
    m.counter("fault.reboots").inc(2)
    m.counter("net.delivered").inc(5)
    assert m.counters_matching("fault.") == {
        "fault.crashes": 1, "fault.reboots": 2}


def test_snapshot_is_json_and_sorted():
    m = MetricsRegistry()
    m.counter("b").inc()
    m.counter("a").inc()
    m.gauge("g").set(1.5)
    m.histogram("h", bounds=(1.0,)).observe(0.5)
    snap = m.snapshot()
    assert list(snap["counters"]) == ["a", "b"]
    json.dumps(snap)  # must be serializable


# -- tracer ------------------------------------------------------------------


def test_span_ids_are_deterministic():
    def make():
        t = Tracer(enabled=True)
        root = t.begin("root", component="c", start=1.0)
        child = t.begin("child", parent=root.ctx, start=2.0)
        t.finish(child, 3.0)
        t.finish(root, 4.0)
        return [(s.trace_id, s.span_id, s.parent_id) for s in t.spans]

    assert make() == make()


def test_parenting_and_ancestry():
    t = Tracer(enabled=True)
    root = t.begin("root", start=0.0)
    mid = t.begin("mid", parent=root.ctx, start=1.0)
    leaf = t.instant("leaf", 2.0, parent=mid.ctx)
    assert leaf.trace_id == root.trace_id
    names = [s.name for s in t.ancestry(leaf)]
    assert names == ["leaf", "mid", "root"]


def test_fresh_trace_per_root():
    t = Tracer(enabled=True)
    a = t.begin("a")
    b = t.begin("b")
    assert a.trace_id != b.trace_id


def test_telemetry_event_noop_when_disabled():
    tel = Telemetry()
    assert tel.event("thing", 1.0) is None
    assert tel.tracer.spans == []
    tel.tracer.enabled = True
    span = tel.event("thing", 1.0, outcome="requeue", unit_id="u1")
    assert isinstance(span, Span)
    assert span.args["unit_id"] == "u1"
    assert span.outcome == "requeue"


def test_trace_context_is_tuple_compatible():
    ctx = TraceContext(3, 4)
    trace_id, span_id = ctx
    assert (trace_id, span_id) == (3, 4)


# -- exporters ---------------------------------------------------------------


def _traced_telemetry():
    tel = Telemetry(trace=True)
    t = tel.tracer
    root = t.begin("recv PING", component="echo", start=1.5, mtype="PING")
    t.instant("send PONG", 1.5, component="echo", parent=root.ctx)
    t.finish(root, 1.75)
    return tel


def test_chrome_trace_schema():
    doc = export_chrome_trace(_traced_telemetry())
    events = doc["traceEvents"]
    assert events, "no events exported"
    for ev in events:
        for key in ("name", "ph", "ts", "pid"):
            assert key in ev, f"missing {key} in {ev}"
        assert ev["ph"] in ("X", "M")
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in spans} == {"recv PING", "send PONG"}
    # Simulated-time microseconds.
    recv = next(e for e in spans if e["name"] == "recv PING")
    assert recv["ts"] == 1.5e6
    assert recv["dur"] == 0.25e6
    # Metadata names the component process.
    meta = [e for e in events if e["ph"] == "M"]
    assert meta and meta[0]["args"]["name"] == "echo"


def test_chrome_trace_is_deterministic():
    a = json.dumps(export_chrome_trace(_traced_telemetry()), sort_keys=True)
    b = json.dumps(export_chrome_trace(_traced_telemetry()), sort_keys=True)
    assert a == b


def test_render_timeline_mentions_spans():
    text = render_timeline(_traced_telemetry())
    assert "recv PING" in text
    assert "send PONG" in text
    assert len(text.splitlines()) == 2
    assert len(render_timeline(_traced_telemetry(), limit=1).splitlines()) == 1

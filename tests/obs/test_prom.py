"""Prometheus text exposition over the telemetry snapshot shape.

The renderer and the (strict) parser are tested against each other:
every snapshot must round-trip, because ``repro top`` and the live
gateway tests read scrapes back through ``parse_prometheus``.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.telemetry import MetricsRegistry
from repro.obs.prom import (
    parse_prometheus,
    render_prometheus,
    sample_value,
    split_metric_key,
)


def _snapshot():
    m = MetricsRegistry()
    m.counter("http.requests", route="POST /jobs", status="201").inc(7)
    m.counter("http.requests", route="GET /queue", status="200").inc(3)
    m.counter("sch.units", outcome="done").inc()
    m.gauge("site.utilisation", site="ucsd").set(0.75)
    m.gauge("site.utilisation", site="utk").set(0.5)
    m.gauge("sch.queue_depth").set(12.0)
    h = m.histogram("http.latency_ms", bounds=(1.0, 5.0, 25.0),
                    route="POST /jobs")
    for v in (0.5, 2.0, 4.0, 30.0):
        h.observe(v)
    return m.snapshot()


def test_split_metric_key():
    assert split_metric_key("plain") == ("plain", {})
    name, labels = split_metric_key("http.requests{route=POST /jobs,status=201}")
    assert name == "http.requests"
    assert labels == {"route": "POST /jobs", "status": "201"}


def test_render_produces_typed_families():
    text = render_prometheus(_snapshot())
    assert "# TYPE http_requests counter" in text
    assert "# TYPE site_utilisation gauge" in text
    assert "# TYPE http_latency_ms histogram" in text
    assert text.endswith("\n")


def test_round_trip_every_sample():
    text = render_prometheus(_snapshot())
    samples = parse_prometheus(text)
    assert sample_value(samples, "http_requests",
                        route="POST /jobs", status="201") == 7
    assert sample_value(samples, "site_utilisation", site="ucsd") == 0.75
    assert sample_value(samples, "sch_queue_depth") == 12


def test_histogram_buckets_are_cumulative_with_inf():
    samples = parse_prometheus(render_prometheus(_snapshot()))
    le = {s["labels"]["le"]: s["value"] for s in samples
          if s["name"] == "http_latency_ms_bucket"}
    assert le["1"] == 1
    assert le["5"] == 3
    assert le["25"] == 3
    assert le["+Inf"] == 4
    assert sample_value(samples, "http_latency_ms_count",
                        route="POST /jobs") == 4
    total = sample_value(samples, "http_latency_ms_sum", route="POST /jobs")
    assert math.isclose(total, 36.5)


def test_label_values_escaped():
    m = MetricsRegistry()
    m.counter("odd", path='a"b\\c').inc()
    samples = parse_prometheus(render_prometheus(m.snapshot()))
    assert samples and samples[0]["labels"]["path"] == 'a"b\\c'


#: Label text the registry key ``name{k=v,...}`` can carry: anything but
#: the "," that separates its pairs.
label_text = st.text(st.characters(blacklist_characters=",",
                                   blacklist_categories=("Cs",)), max_size=12)
gauge_values = st.one_of(st.floats(), st.sampled_from(
    [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e300, 5e-324]))


@given(labels=st.lists(st.tuples(label_text, gauge_values), min_size=1,
                       max_size=6, unique_by=lambda pair: pair[0]))
# Before the one-pass unescape, a backslash before an "n" came back as a
# newline: C:\new parsed as C:<newline>ew.
@example(labels=[("C:\\new", 1.0), ("a\\nb", math.inf)])
# Before lines were split at "\n" only, these cut a sample in two.
@example(labels=[("a\rb", math.nan), ("\u2028\x1c", -math.inf)])
@settings(max_examples=150, deadline=None)
def test_every_label_and_value_survives_render_then_parse(labels):
    m = MetricsRegistry()
    for site, value in labels:
        m.gauge("site.utilisation", site=site).set(value)
    samples = parse_prometheus(render_prometheus(m.snapshot()))
    got = {s["labels"]["site"]: s["value"] for s in samples}
    assert set(got) == {site for site, _ in labels}
    for site, value in labels:
        assert (math.isnan(got[site]) if math.isnan(value)
                else got[site] == value), (site, value, got[site])


def test_metric_names_sanitised():
    m = MetricsRegistry()
    m.counter("http.requests-total").inc(2)
    text = render_prometheus(m.snapshot())
    assert "http_requests_total 2" in text


def test_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_prometheus("this is { not prometheus\n")


def test_empty_snapshot_renders_empty():
    assert parse_prometheus(render_prometheus(
        {"counters": {}, "gauges": {}, "histograms": {}})) == []

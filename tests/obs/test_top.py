"""The repro-top frame builder and renderer (pure functions, no I/O), and
one live ``run_top`` against a real gateway listener."""

import io
import threading
import time

from repro.control import (GatewayClient, GatewayCore, HttpServer, WorkQueue,
                           render_payload)
from repro.obs.prom import parse_prometheus, render_prometheus
from repro.obs.top import (build_frame, quantile_from_buckets, render_top,
                           run_top)

INF = float("inf")


def _metrics():
    return {
        "counters": {
            "http.requests{route=POST /jobs,status=201}": 40,
            "http.requests{route=POST /jobs,status=400}": 2,
            "http.requests{route=GET /queue,status=200}": 8,
        },
        "gauges": {
            "sch.queue_depth": 5.0,
            "site.utilisation{site=ucsd}": 0.8,
            "site.delivered_ops{site=ucsd}": 800.0,
            "site.available_ops{site=ucsd}": 1000.0,
            "site.utilisation{site=utk}": 0.25,
        },
        "histograms": {
            "http.latency_ms{route=POST /jobs}": {
                "bounds": [1.0, 5.0, 25.0],
                "counts": [10, 25, 4, 1],
                "count": 40,
                "total": 120.0,
            },
        },
    }


def _scrape(metrics):
    """What ``repro top`` reads: the gateway's /metrics text, parsed."""
    return parse_prometheus(render_prometheus(metrics))


def test_quantiles_pick_bucket_bounds():
    buckets = [(1.0, 10), (5.0, 35), (25.0, 39), (INF, 40)]
    assert quantile_from_buckets(buckets, 0.50) == 5.0
    assert quantile_from_buckets(buckets, 0.99) == 25.0
    # The +Inf bucket clamps to the top finite bound.
    assert quantile_from_buckets([(1.0, 0), (INF, 3)], 0.5) == 1.0
    assert quantile_from_buckets([(INF, 0)], 0.5) == 0.0
    assert quantile_from_buckets([], 0.5) == 0.0


def test_build_frame_totals_and_sites():
    """Hard-coded: the frame the retired /metrics.json path built from
    this fixture. The Prometheus scrape must give the same totals, routes
    and sites."""
    frame = build_frame(_scrape(_metrics()),
                        queue={"depth": 5, "queued": 3, "done": 2}, now=10.0)
    assert frame["submitted_total"] == 42  # both statuses on POST /jobs
    assert (frame["requests_total"], frame["queue_depth"]) == (50, 5.0)
    assert frame["routes"] == {
        "POST /jobs": {"count": 40, "p50_ms": 5.0, "p99_ms": 25.0}}
    assert frame["sites"] == {
        "ucsd": {"utilisation": 0.8, "delivered": 800.0,
                 "available": 1000.0},
        "utk": {"utilisation": 0.25}}
    # First sample: no rates yet.
    assert frame["submissions_per_s"] == 0.0


def test_rates_are_deltas_against_prev_frame():
    prev = build_frame(_scrape(_metrics()), now=10.0)
    metrics = _metrics()
    metrics["counters"]["http.requests{route=POST /jobs,status=201}"] = 60
    frame = build_frame(_scrape(metrics), prev=prev, now=12.0)
    assert frame["submissions_per_s"] == 10.0  # +20 over 2s


def test_render_top_mentions_everything():
    frame = build_frame(_scrape(_metrics()),
                        queue={"depth": 5, "queued": 3},
                        events=[{"event": "done", "job": "j-9", "t": 4.5}],
                        now=10.0)
    text = render_top(frame)
    assert "repro top" in text
    assert "queue depth      5" in text
    assert "ucsd" in text and "80.0%" in text
    assert "POST /jobs" in text
    assert "j-9" in text


def test_render_top_survives_empty_frame():
    text = render_top(build_frame([], now=0.0))
    assert "repro top" in text
    assert "?" in text  # unknown queue depth


# -- live: run_top against a real gateway listener ----------------------------

def test_run_top_once_against_a_live_gateway():
    core = GatewayCore("gw-top", WorkQueue(prefix="t"))

    def app(request):
        status, payload, route = core.handle(
            request.method, request.path, request.body, time.monotonic())
        # A fixed request clock, so the quantiles are exact: 0.3 ms lands
        # in the 0.5 ms bucket.
        core.observe_latency(route, 0.3)
        return render_payload(status, payload, route, close=request.close)

    server = HttpServer("127.0.0.1", 0, app)
    contact = "%s:%d" % server.address
    stop = threading.Event()
    pump = threading.Thread(  # test harness only: the library never threads
        target=lambda: [server.step(0.01) for _ in iter(stop.is_set, True)],
        daemon=True)
    pump.start()
    try:
        with GatewayClient(contact) as client:
            for i in range(5):
                client.submit({"i": i})
            client.publish_sites({"ucsd": {"utilisation": 0.75,
                                           "delivered_ops": 750,
                                           "available_ops": 1000}})
            assert client.request("GET", "/metrics.json")[0] == 404
        out = io.StringIO()
        assert run_top(contact, once=True, out=out) == 0
    finally:
        stop.set()
        pump.join(timeout=2)
        server.close()
    text = out.getvalue()
    assert "queue depth      5" in text
    routes = {}
    for line in text.splitlines():
        if line.startswith(("GET ", "POST ")):
            route, count, p50, p99 = line.rsplit(None, 3)
            routes[route.strip()] = (int(count), float(p50), float(p99))
    assert routes["POST /jobs"] == (5, 0.5, 0.5)
    (site,) = [line for line in text.splitlines() if line.startswith("ucsd")]
    assert "75.0%" in site and "750" in site and "1,000" in site

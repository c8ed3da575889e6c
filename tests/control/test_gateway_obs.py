"""The gateway's observability routes and end-to-end job tracing.

Covers the DESIGN §14 surface sans-IO: Prometheus text at /metrics
(the one metrics route), the JSONL /events feed, pushed per-site
utilisation gauges, and the ingress span / TraceContext that rides the
journal and the work unit across the wire.
"""

import json

from repro.control import FileJournal, GatewayCore, WorkQueue, render_payload
from repro.control.gateway import TEXT_ROUTES
from repro.core.telemetry import Telemetry
from repro.obs.events import parse_jsonl
from repro.obs.prom import parse_prometheus, sample_value


def _core(telemetry=None, work=None):
    work = work if work is not None else WorkQueue(prefix="t")
    return GatewayCore("gw-test", work, telemetry=telemetry)


def _json(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


# -- exposition routes --------------------------------------------------------
def test_metrics_is_prometheus_and_metrics_json_is_gone():
    core = _core()
    core.handle("POST", "/jobs", _json({"k": 8}), now=0.0)

    status, text, route = core.handle("GET", "/metrics", b"", now=1.0)
    assert (status, route) == (200, "GET /metrics")
    samples = parse_prometheus(text)  # must parse strictly
    assert sample_value(samples, "http_requests",
                        route="POST /jobs", status="201") == 1

    # One metrics route: the old JSON snapshot route no longer exists.
    assert core.handle("GET", "/metrics.json", b"", now=1.0)[0] == 404


def test_render_payload_sets_text_content_types():
    frame = render_payload(200, "a 1\n", "GET /metrics")
    assert TEXT_ROUTES["GET /metrics"].encode() in frame
    assert b"a 1\n" in frame
    frame = render_payload(200, "{}\n", "GET /events")
    assert b"application/x-ndjson" in frame
    frame = render_payload(200, {"ok": True}, "GET /health")
    assert b"application/json" in frame


def test_events_feed_tails_job_lifecycle():
    core = _core()
    core.handle("POST", "/jobs", _json({}), now=1.0)
    core.work.next_unit()
    core.work.complete("t-1", {"answer": 42}, now=2.0)

    status, text, route = core.handle("GET", "/events", b"", now=3.0)
    assert (status, route) == (200, "GET /events")
    events = parse_jsonl(text)
    assert [e["event"] for e in events] == ["submitted", "assigned", "done"]
    assert all(e["job"] == "t-1" for e in events)

    # since= is strictly-greater; limit caps.
    _, text, _ = core.handle("GET", f"/events?since={events[0]['seq']}",
                             b"", now=3.0)
    assert [e["event"] for e in parse_jsonl(text)] == ["assigned", "done"]
    _, text, _ = core.handle("GET", "/events?since=-1&limit=1", b"", now=3.0)
    assert len(parse_jsonl(text)) == 1
    status, doc, _ = core.handle("GET", "/events?since=nope", b"", now=3.0)
    assert status == 400


def test_terminal_events_are_self_contained():
    """`done` carries the result and the requeue count, `cancelled` the
    requeue count: a feed consumer never needs GET /jobs/{id}. A `wait=`
    read is answered at once, never parked."""
    core = _core()
    core.handle("POST", "/jobs", _json({}), now=1.0)
    core.handle("POST", "/jobs", _json({}), now=1.0)
    core.work.requeue(core.work.next_unit())
    result = {"answer": 42}
    core.work.complete(core.work.next_unit()["id"], result, now=2.0)
    core.work.cancel("t-2", now=2.5)

    done, cancelled = (e for e in parse_jsonl("".join(core.events.since(-1)))
                       if e["event"] in ("done", "cancelled"))
    assert done["result"] == result and done["requeues"] == 1
    assert cancelled["job"] == "t-2" and cancelled["requeues"] == 0
    assert "result" not in cancelled
    status, text, _ = core.handle("GET", "/events?since=-1&wait=30", b"",
                                  now=3.0)
    assert status == 200
    assert [e for e in parse_jsonl(text) if e["event"] == "done"] == [done]
    record = json.loads(core.handle("GET", "/jobs/t-1", b"", now=3.0)[1])
    assert (done["result"], done["requeues"]) == (record["result"],
                                                  record["requeues"])


def _value_text(text, key):
    """The exact JSON text of the first ``key`` member in ``text``."""
    start = text.index(f'"{key}":') + len(key) + 3
    return text[start:json.JSONDecoder().raw_decode(text, start)[1]]


def test_feed_lines_are_the_dict_form_and_carry_the_journaled_result():
    """A scripted lifecycle emits every event kind under a prefix that
    needs escaping. The /events body is ``render_jsonl`` of each event's
    dict form to the byte, and a ``done`` line's result is the text the
    journal holds (``GET /jobs/{id}``), even after the caller mutated the
    dict it completed with."""
    from copy import deepcopy

    from repro.explore import evaluate, make_eval_spec
    from repro.obs.events import render_jsonl

    prefix = 'q"\\é\n'
    work = WorkQueue(prefix=prefix)
    core = _core(work=work)
    clock = [0.0]
    work.clock = lambda: clock[0]
    specs = [make_eval_spec("forecast", {"bias": 0.1 * i, "damping": 0.5},
                            seed=i) for i in range(3)]
    j1, j2, j3 = (job.id for job in work.submit_batch(specs, 1.25))
    expected = [{"event": "submitted", "job": j, "t": 1.25}
                for j in (j1, j2, j3)]

    def at(t, event, job, **extra):
        clock[0] = t
        expected.append({"event": event, "job": job, "t": round(t, 6),
                         **extra})

    at(2.0, "assigned", j1)
    unit = work.next_unit()
    at(2.5, "requeued", j1, requeues=1)
    work.requeue(unit)
    at(3.0, "assigned", j1)
    work.next_unit()
    honest1, honest3 = evaluate(specs[0]), evaluate(specs[2])
    at(3.5, "rejected", j1)
    work.complete(j1, {**honest1, "value": 0.0}, now=3.5)
    at(4.0, "assigned", j1)
    work.next_unit()
    at(4.5, "done", j1, requeues=1, result=deepcopy(honest1))
    work.complete(j1, honest1, now=4.5)
    at(5.0, "cancelled", j2, requeues=0)
    work.cancel(j2, now=5.0)
    at(7.123456789, "assigned", j3)
    assert work.next_unit()["id"] == j3
    at(7.5, "done", j3, requeues=0, result=deepcopy(honest3))
    work.complete(j3, honest3, now=7.5)
    honest1["value"] = -1.0                 # the caller reuses its dicts
    honest3.clear()
    assert work.results_rejected == 1
    for seq, event in enumerate(expected):
        event["seq"] = seq

    status, body, _ = core.handle("GET", "/events?since=-1&limit=0", b"",
                                  now=8.0)
    assert status == 200 and body == render_jsonl(expected)
    assert {e["event"] for e in expected} == {
        "submitted", "assigned", "requeued", "rejected", "done", "cancelled"}
    done = [line for line in body.splitlines() if '"event":"done"' in line]
    assert len(done) == 2
    for line in done:
        job_id = json.loads(line)["job"]
        status, record, _ = core.handle("GET", f"/jobs/{job_id}", b"",
                                        now=8.0)
        assert status == 200
        record = record.decode("ascii")
        assert _value_text(line, "result") == _value_text(record, "result")


def test_request_counters_are_cached_per_route_and_follow_the_registry():
    """`dispatch` keeps each http.requests Counter instead of rebuilding
    its key per request; /metrics must not be able to tell."""
    telemetry = Telemetry()
    core = _core(telemetry=telemetry)
    for _ in range(3):
        core.handle("GET", "/health", b"", now=0.0)
    core.handle("GET", "/jobs/nope", b"", now=0.0)
    core.handle("GET", "/nowhere", b"", now=0.0)
    assert telemetry.metrics.snapshot()["counters"] == {
        "http.requests{route=GET /health,status=200}": 3,
        "http.requests{route=GET /jobs/{id},status=404}": 1,
        "http.requests{route=none,status=404}": 1,
    }
    reference = Telemetry()
    reference.metrics.counter("http.requests", route="GET /health",
                              status="200").inc(3)
    reference.metrics.counter("http.requests", route="GET /jobs/{id}",
                              status="404").inc()
    reference.metrics.counter("http.requests", route="none",
                              status="404").inc()
    from repro.obs.prom import render_prometheus
    assert (render_prometheus(telemetry.metrics.snapshot())
            == render_prometheus(reference.metrics.snapshot()))
    # Swapping the registry (the sim twin's bind_telemetry) drops the
    # cached references with it.
    core.telemetry = swapped = Telemetry()
    core.handle("GET", "/health", b"", now=0.0)
    assert swapped.metrics.snapshot()["counters"] == {
        "http.requests{route=GET /health,status=200}": 1}
    assert telemetry.metrics.snapshot()["counters"][
        "http.requests{route=GET /health,status=200}"] == 3


def test_sites_push_lands_as_labelled_gauges():
    core = _core()
    body = {"sites": {"ucsd": {"delivered_ops": 750.0,
                               "available_ops": 1000.0,
                               "utilisation": 0.75, "clients": 2},
                      "utk": {"utilisation": 0.5}}}
    status, doc, route = core.handle("POST", "/telemetry/sites",
                                     _json(body), now=1.0)
    assert (status, route) == (200, "POST /telemetry/sites")
    assert doc == {"ok": True, "sites": 2}
    samples = parse_prometheus(
        core.handle("GET", "/metrics", b"", now=2.0)[1])
    assert sample_value(samples, "site_utilisation", site="ucsd") == 0.75
    assert sample_value(samples, "site_delivered_ops", site="ucsd") == 750
    assert sample_value(samples, "site_utilisation", site="utk") == 0.5

    assert core.handle("POST", "/telemetry/sites", b"[]", now=0.0)[0] == 400
    assert core.handle("POST", "/telemetry/sites", b"{nope", now=0.0)[0] == 400


def test_gossip_push_lands_as_gauges():
    core = _core()
    body = {"gossip": {"digest_rounds": 120, "delta_records": 37,
                       "bytes_sent": 51200, "bytes_saved": 480000,
                       "members": 8, "registered": 64,
                       "suspicion": {"suspect": 3, "dead": 1}}}
    status, doc, route = core.handle("POST", "/telemetry/gossip",
                                     _json(body), now=1.0)
    assert (status, route) == (200, "POST /telemetry/gossip")
    assert doc == {"ok": True}
    samples = parse_prometheus(
        core.handle("GET", "/metrics", b"", now=2.0)[1])
    assert sample_value(samples, "gossip_digest_rounds") == 120
    assert sample_value(samples, "gossip_delta_records") == 37
    assert sample_value(samples, "gossip_bytes_saved") == 480000
    assert sample_value(samples, "gossip_suspicion_transitions",
                        to="suspect") == 3
    assert sample_value(samples, "gossip_suspicion_transitions",
                        to="dead") == 1

    assert core.handle("POST", "/telemetry/gossip", b"[]", now=0.0)[0] == 400
    assert core.handle("POST", "/telemetry/gossip", b"{no", now=0.0)[0] == 400


def test_gossip_rollup_round_trips_from_a_live_pool():
    from repro.experiments.bigpool import (build_pool, gossip_rollup,
                                           inject_write)

    pool = build_pool(n_hosts=16, n_sites=2, n_records=8)
    pool.run(until=30.0)
    inject_write(pool)
    pool.run(until=60.0)
    rollup = gossip_rollup(pool.servers)
    assert rollup["digest_rounds"] > 0
    assert rollup["delta_records"] > 0
    assert rollup["bytes_saved"] > 0

    core = _core()
    status, _, _ = core.handle("POST", "/telemetry/gossip",
                               _json({"gossip": rollup}), now=1.0)
    assert status == 200
    samples = parse_prometheus(
        core.handle("GET", "/metrics", b"", now=2.0)[1])
    assert sample_value(samples, "gossip_digest_rounds") == float(
        rollup["digest_rounds"])
    assert sample_value(samples, "gossip_members") == 16.0

    # The pool members also expose the same plane first-hand through
    # their own telemetry registries (counters, not pushed gauges).
    counters = pool.servers[0].telemetry.metrics.snapshot()["counters"]
    assert any(k.startswith("gossip.delta_records") for k in counters)
    assert any(k.startswith("gossip.bytes_saved") for k in counters)
    assert any(k.startswith("gossip.sync_bytes") for k in counters)


# -- end-to-end trace propagation --------------------------------------------
def test_submit_roots_trace_and_unit_carries_context():
    tel = Telemetry(trace=True, id_base=1000)
    core = _core(telemetry=tel)
    status, doc, _ = core.handle("POST", "/jobs", _json({"k": 8}), now=1.0)
    assert status == 201

    ingress = next(s for s in tel.tracer.spans if s.name == "job ingress")
    assert ingress.args["job_id"] == doc["id"]
    job = core.work.get(doc["id"])
    assert job.trace == (ingress.trace_id, ingress.span_id)

    unit = core.work.next_unit()
    # The context rides inside the unit dict, across the SCH_WORK wire.
    assert unit["trace"] == [ingress.trace_id, ingress.span_id]

    names = [s.name for s in tel.tracer.spans
             if s.trace_id == ingress.trace_id]
    assert names == ["job ingress", "job assign"]

    core.work.requeue(unit)
    core.work.complete(doc["id"], {"ok": 1}, now=5.0)
    names = [s.name for s in tel.tracer.spans
             if s.trace_id == ingress.trace_id]
    assert "job requeue" in names
    assert "job done" in names
    requeue = next(s for s in tel.tracer.spans if s.name == "job requeue")
    assert requeue.outcome == "requeue"


def test_one_span_per_accepted_job_or_batch():
    # The ingress span brackets the journal flush and names the job (or
    # the batch size), so accepting work records nothing else.
    tel = Telemetry(trace=True, id_base=1000)
    core = _core(telemetry=tel)
    singles = 5
    for _ in range(singles):
        status, _, _ = core.handle("POST", "/jobs", _json({"k": 8}), now=1.0)
        assert status == 201
    status, doc, _ = core.handle(
        "POST", "/jobs/batch", _json({"specs": [{"k": 8}] * 3}), now=2.0)
    assert status == 201 and doc["count"] == 3
    assert [s.name for s in tel.tracer.spans] == ["job ingress"] * (
        singles + 1)
    assert tel.tracer.spans[-1].args["jobs"] == 3


def test_trace_disabled_emits_no_spans_and_no_trace_field():
    core = _core()  # default Telemetry: tracing off
    _, doc, _ = core.handle("POST", "/jobs", _json({}), now=0.0)
    assert core.telemetry.tracer.spans == []
    assert core.work.get(doc["id"]).trace is None
    unit = core.work.next_unit()
    assert "trace" not in unit


def test_trace_survives_journal_replay(tmp_path):
    journal = str(tmp_path / "jobs.jsonl")
    tel = Telemetry(trace=True, id_base=7000)
    core = _core(telemetry=tel,
                 work=WorkQueue(journal=FileJournal(journal), prefix="t"))
    _, doc, _ = core.handle("POST", "/jobs", _json({"k": 8}), now=1.0)
    trace = core.work.get(doc["id"]).trace
    assert trace is not None
    core.work.close()

    # A restarted gateway replays the journal: the TraceContext must
    # come back so post-restart spans still join the original trace.
    reborn = WorkQueue(journal=FileJournal(journal), prefix="t")
    assert reborn.get(doc["id"]).trace == tuple(trace)
    unit = reborn.next_unit()
    assert unit["trace"] == list(trace)
    reborn.close()

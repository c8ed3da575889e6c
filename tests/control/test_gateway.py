"""GatewayCore routing: one table, exercised sans-IO.

These are the semantics both planes inherit — the live HttpServer and
the simulated twin drive this exact router, so every status code and
idempotency rule proven here holds there too.
"""

import pytest

from repro.control import GatewayCore, HttpRequest, WorkQueue
from repro.control.gateway import MAX_EVENT_WAIT, http_app


@pytest.fixture()
def core():
    return GatewayCore("gw-test", WorkQueue(prefix="t"))


def _json(obj) -> bytes:
    import json

    return json.dumps(obj).encode("utf-8")


def test_submit_returns_201_and_assigned_id(core):
    status, doc, route = core.handle(
        "POST", "/jobs", _json({"kind": "noop"}), now=1.0)
    assert (status, route) == (201, "POST /jobs")
    assert doc["id"] == "t-1"
    assert doc["state"] == "queued"
    assert doc["submitted_at"] == 1.0


def test_submit_rejects_malformed_bodies(core):
    for body in (b"{not json", b"", b"[1, 2]", b'"a string"',
                 _json({"id": "t-9", "kind": "forged"})):
        status, doc, route = core.handle("POST", "/jobs", body, now=0.0)
        assert status == 400, body
        assert "error" in doc
        assert route == "POST /jobs"
    assert core.rejected == 5
    assert len(core.work.jobs) == 0


@pytest.mark.parametrize("n", [0, 1, 100, 101, 250])
def test_list_jobs_returns_the_newest_hundred_ids_oldest_first(n):
    from repro.control.gateway import MAX_LISTED_JOBS

    core = GatewayCore("gw-test", WorkQueue(prefix="t"))
    ids = [job.id for job in core.work.submit_batch(
        [{"i": i} for i in range(n)], now=0.0)]
    for job_id in ids[::3]:
        core.work.cancel(job_id, now=1.0)
    status, doc, _ = core.handle("GET", "/jobs", b"", now=2.0)
    assert status == 200
    assert doc["jobs"] == ids[-MAX_LISTED_JOBS:]
    assert doc["truncated"] is (n > MAX_LISTED_JOBS)
    assert doc["counts"] == {"queued": n - len(ids[::3]), "assigned": 0,
                             "done": 0, "cancelled": len(ids[::3]),
                             "total": n}


def test_get_job_roundtrip_and_404(core):
    core.handle("POST", "/jobs", _json({"k": 8}), now=1.0)
    status, doc, route = core.handle("GET", "/jobs/t-1", b"", now=2.0)
    assert (status, route) == (200, "GET /jobs/{id}")
    assert doc["id"] == "t-1"
    assert doc["spec"] == {"k": 8}
    status, doc, _ = core.handle("GET", "/jobs/t-404", b"", now=2.0)
    assert status == 404


def test_cancel_idempotent_and_409_once_done(core):
    core.handle("POST", "/jobs", _json({}), now=0.0)
    status1, doc1, route = core.handle(
        "POST", "/jobs/t-1/cancel", b"", now=1.0)
    status2, doc2, _ = core.handle("POST", "/jobs/t-1/cancel", b"", now=2.0)
    assert route == "POST /jobs/{id}/cancel"
    assert (status1, status2) == (200, 200)  # double-cancel is idempotent
    assert doc1["state"] == doc2["state"] == "cancelled"
    assert doc2["finished_at"] == 1.0

    core.handle("POST", "/jobs", _json({}), now=3.0)
    core.work.next_unit()
    core.work.complete("t-2", {"answer": 1}, now=4.0)
    status, doc, _ = core.handle("POST", "/jobs/t-2/cancel", b"", now=5.0)
    assert status == 409
    assert doc["state"] == "done"
    status, _, _ = core.handle("POST", "/jobs/t-404/cancel", b"", now=5.0)
    assert status == 404


def test_list_queue_health_metrics(core):
    for i in range(3):
        core.handle("POST", "/jobs", _json({"i": i}), now=float(i))
    status, doc, _ = core.handle("GET", "/jobs", b"", now=3.0)
    assert status == 200
    assert doc["counts"]["queued"] == 3
    assert doc["jobs"] == ["t-1", "t-2", "t-3"]
    assert doc["truncated"] is False

    status, doc, _ = core.handle("GET", "/queue", b"", now=3.0)
    assert status == 200
    assert doc["depth"] == 3

    status, doc, _ = core.handle("GET", "/health", b"", now=10.0)
    assert status == 200
    assert doc["ok"] is True
    assert doc["node"] == "gw-test"
    assert doc["uptime"] == 10.0
    assert doc["jobs"]["queued"] == 3

    # /metrics is Prometheus text exposition (DESIGN §14).
    status, text, _ = core.handle("GET", "/metrics", b"", now=10.0)
    assert status == 200
    assert isinstance(text, str)
    assert "http_requests" in text


def test_unknown_routes_404_wrong_methods_405(core):
    assert core.handle("GET", "/nope", b"", now=0.0)[0] == 404
    assert core.handle("DELETE", "/jobs", b"", now=0.0)[0] == 405
    assert core.handle("POST", "/jobs/t-1", b"", now=0.0)[0] == 405
    assert core.handle("GET", "/jobs/t-1/cancel", b"", now=0.0)[0] == 405
    assert core.handle("POST", "/health", b"", now=0.0)[0] == 405


def test_path_normalisation(core):
    core.handle("POST", "/jobs", _json({}), now=0.0)
    # Trailing slashes and query strings route identically.
    assert core.handle("GET", "/jobs/t-1/", b"", now=0.0)[0] == 200
    assert core.handle("GET", "/health?probe=1", b"", now=0.0)[0] == 200


def test_requests_accounted_per_route_and_status(core):
    core.handle("POST", "/jobs", _json({}), now=0.0)
    core.handle("GET", "/jobs/t-404", b"", now=0.0)
    assert core.requests == 2
    assert core.rejected == 1
    counters = core.telemetry.metrics.snapshot()["counters"]
    assert any("POST /jobs" in k and "201" in k for k in counters)
    assert any("404" in k for k in counters)


# -- POST /jobs/batch (one flush for a whole ME generation) -----------------

def test_batch_submit_returns_201_with_all_ids(core):
    status, doc, route = core.handle(
        "POST", "/jobs/batch",
        _json({"specs": [{"i": 0}, {"i": 1}, {"i": 2}]}), now=1.0)
    assert (status, route) == (201, "POST /jobs/batch")
    assert doc["ids"] == ["t-1", "t-2", "t-3"]
    assert doc["count"] == 3
    assert doc["state"] == "queued"
    assert doc["submitted_at"] == 1.0
    assert all(core.work.get(i).state == "queued" for i in doc["ids"])


def test_batch_submit_rejects_malformed_atomically(core):
    bad_bodies = (
        b"{not json",
        b"",
        _json([1, 2]),                      # not an object
        _json({"specs": []}),               # empty batch
        _json({"specs": "nope"}),           # not a list
        _json({"jobs": [{}]}),              # wrong key
        _json({"specs": [{"i": 0}, "nope"]}),          # non-dict spec
        _json({"specs": [{"i": 0}, {"id": "t-9"}]}),   # forged id
    )
    for body in bad_bodies:
        status, doc, route = core.handle(
            "POST", "/jobs/batch", body, now=0.0)
        assert status == 400, body
        assert "error" in doc
        assert route == "POST /jobs/batch"
    # Atomic: no spec from any rejected batch was accepted.
    assert len(core.work.jobs) == 0
    assert core.rejected == len(bad_bodies)


def test_batch_submit_caps_batch_size(core):
    from repro.control.gateway import MAX_BATCH_JOBS

    body = _json({"specs": [{} for _ in range(MAX_BATCH_JOBS + 1)]})
    status, doc, _ = core.handle("POST", "/jobs/batch", body, now=0.0)
    assert status == 400
    assert len(core.work.jobs) == 0


def test_batch_route_methods_and_id_routing(core):
    # Wrong method on the batch route is 405, not a /jobs/{id} lookup.
    assert core.handle("GET", "/jobs/batch", b"", now=0.0)[0] == 405
    assert core.handle("DELETE", "/jobs/batch", b"", now=0.0)[0] == 405
    # And /jobs/{id} still routes: "batch" is not a job id.
    core.handle("POST", "/jobs", _json({}), now=0.0)
    status, doc, route = core.handle("GET", "/jobs/t-1", b"", now=0.0)
    assert (status, route) == (200, "GET /jobs/{id}")


@pytest.mark.parametrize("query", ["wait=nan", "wait=inf", "wait=-1",
                                   "limit=-1", "since=x", "wait=1&limit=-3"])
def test_events_query_is_checked_once_for_router_and_long_poll(core, query):
    """A NaN wait never reaches its deadline and a negative limit pages
    nothing: the router answers 400, and the app never parks them."""
    status, doc, route = core.handle("GET", f"/events?{query}", b"", 0.0)
    assert (status, route) == (400, "GET /events") and "error" in doc
    app = http_app(core, lambda: 0.0)
    assert app(HttpRequest("GET", f"/events?{query}")).startswith(
        b"HTTP/1.1 400 ")


def test_events_query_takes_a_quoted_wait_and_a_zero_limit(core):
    core.handle("POST", "/jobs", _json({"kind": "noop"}), now=0.0)
    status, page, _ = core.handle("GET", "/events?wait=%2E5&limit=0", b"",
                                  0.0)
    assert status == 200 and '"event":"submitted"' in page  # 0: no limit


def test_a_long_poll_keeps_its_deadline_on_the_request(core):
    """Park state rides the request: a later request (which may reuse a
    freed one's ``id()``) waits its own time, not an expired deadline."""
    now = [0.0]
    app = http_app(core, lambda: now[0])
    first = HttpRequest("GET", "/events?wait=5")
    assert app(first) is None and first.deadline == 5.0
    now[0] = 4.0
    assert app(first) is None
    now[0] = 6.0
    assert app(first).startswith(b"HTTP/1.1 200 ")   # waited long enough
    second = HttpRequest("GET", "/events?wait=100")
    assert app(second) is None and second.deadline == 6.0 + MAX_EVENT_WAIT
    core.handle("POST", "/jobs", _json({"kind": "noop"}), now=7.0)
    now[0] = 7.0
    assert b'"event":"submitted"' in app(second)     # the feed moved


def test_a_request_is_parsed_once_however_often_it_is_offered(core,
                                                              monkeypatch):
    """The app resolves a request on its first offer and keeps the
    result on it: a parked long-poll's query is not parsed again when it
    is re-offered, and a POST body is parsed once."""
    import repro.control.gateway as gateway

    parsed = []

    def counting(real):
        return lambda text: parsed.append(text) or real(text)

    monkeypatch.setattr(gateway, "_events_query",
                        counting(gateway._events_query))
    monkeypatch.setattr(gateway.json, "loads", counting(gateway.json.loads))
    now = [0.0]
    app = http_app(core, lambda: now[0])
    poll = HttpRequest("GET", "/events?wait=5")
    for now[0] in (0.0, 1.0, 2.0, 3.0):
        assert app(poll) is None
    now[0] = 6.0
    assert app(poll).startswith(b"HTTP/1.1 200 ")
    assert app(HttpRequest("POST", "/jobs", body=b"{}")).startswith(
        b"HTTP/1.1 201 ")
    assert parsed == ["wait=5", b"{}"]

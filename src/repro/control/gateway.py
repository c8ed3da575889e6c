"""The gateway's request router, sans-IO.

:class:`GatewayCore` maps ``(method, path, body)`` to ``(status, JSON
document)`` over a :class:`~repro.control.workqueue.WorkQueue` — and
*only* that: no sockets, no clocks of its own. The live plane wraps it
in :class:`~repro.control.http.HttpServer` on the node's reactor; the
simulated twin drives the identical router from lingua-franca messages
under simulated time. One routing table, two planes — the same
sim/live contract every other EveryWare component honors.

Routes (diracx-style job management + health, ROADMAP item 2)::

    POST /jobs              submit one job (body = the JSON spec)
    POST /jobs/batch        submit N jobs, one journal flush (201 + ids)
    GET  /jobs              queue counts + recent job ids
    GET  /jobs/{id}         full job record (state, spec, result)
    POST /jobs/{id}/cancel  cancel (idempotent; 409 once done)
    GET  /queue             queue/progress counters
    GET  /health            liveness + uptime + job counts
    GET  /metrics           Prometheus text exposition (DESIGN §14)
    GET  /metrics.json      the raw telemetry metrics snapshot (legacy)
    GET  /events            job-lifecycle feed, JSONL (long-poll capable)
    POST /telemetry/sites   per-site utilisation gauges (collector push)

Every request lands in per-route telemetry: a request counter labelled
``{route, status}``, a latency histogram per route (observed by the I/O
wrapper, which owns the clock), and a trace span per request. A POST
/jobs additionally roots the job's end-to-end trace: the ingress span's
context is journaled with the submission and stamped into the work unit
so every downstream actor parents on it.

Text routes (/metrics, /events) return a ``str`` payload instead of a
JSON document; I/O wrappers render either with :func:`render_payload`.
"""

from __future__ import annotations

import json
from typing import Optional, Union
from urllib.parse import unquote_plus

from ..core.telemetry import Telemetry
from ..obs.events import EventLog, render_jsonl
from ..obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from ..obs.prom import render_prometheus
from .http import json_response, text_response
from .workqueue import WorkQueue

__all__ = ["GatewayCore", "ROUTES", "TEXT_ROUTES", "render_payload"]

#: Route keys as they appear in telemetry labels.
ROUTES = (
    "POST /jobs",
    "POST /jobs/batch",
    "GET /jobs",
    "GET /jobs/{id}",
    "POST /jobs/{id}/cancel",
    "GET /queue",
    "GET /health",
    "GET /metrics",
    "GET /metrics.json",
    "GET /events",
    "POST /telemetry/sites",
    "POST /telemetry/gossip",
)

#: Routes whose payload is pre-rendered text, and the content type each
#: is served under.
TEXT_ROUTES = {
    "GET /metrics": PROM_CONTENT_TYPE,
    "GET /events": "application/x-ndjson",
}

#: Latency buckets for the per-route histograms (milliseconds).
LATENCY_BUCKETS_MS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
                      100.0, 250.0, 1000.0)

#: ``GET /jobs`` returns at most this many recent ids.
MAX_LISTED_JOBS = 100

#: ``POST /jobs/batch`` accepts at most this many specs per request.
MAX_BATCH_JOBS = 10_000


def render_payload(status: int, payload: Union[dict, str], route: str,
                   close: bool = False) -> bytes:
    """One response frame for either payload kind the router returns:
    a JSON document (dict) or pre-rendered text (str, content type per
    :data:`TEXT_ROUTES`). Every I/O wrapper — live node, bench child,
    HTTP tests — renders through this, so text routes can't drift."""
    if isinstance(payload, str):
        return text_response(
            status, payload,
            content_type=TEXT_ROUTES.get(route, "text/plain; charset=utf-8"),
            close=close)
    return json_response(status, payload, close=close)


def _query_params(query: str) -> dict:
    params: dict[str, str] = {}
    for pair in query.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        params[unquote_plus(key)] = unquote_plus(value)
    return params


class GatewayCore:
    """Routing + validation over a WorkQueue (see module docstring)."""

    def __init__(self, name: str, work: WorkQueue,
                 telemetry: Optional[Telemetry] = None,
                 started_at: float = 0.0,
                 events: Optional[EventLog] = None) -> None:
        self.name = name
        self.work = work
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.started_at = started_at
        self.requests = 0
        self.rejected = 0
        #: The /events feed. The WorkQueue is the producer (it owns the
        #: job lifecycle); wire it up unless the caller already did.
        if events is None:
            events = work.events if work.events is not None else EventLog()
        self.events = events
        if work.events is None:
            work.events = events
        if work.telemetry is None:
            work.telemetry = self.telemetry
        work.component = name

    @property
    def telemetry(self) -> Telemetry:
        return self._telemetry

    @telemetry.setter
    def telemetry(self, telemetry: Telemetry) -> None:
        self._telemetry = telemetry
        #: (route, status) -> its ``http.requests`` Counter. A registry
        #: never resets, so the references stay good until it is swapped.
        self._request_counters: dict = {}

    # -- bookkeeping ----------------------------------------------------------
    def _account(self, route: str, status: int, now: float) -> None:
        self.requests += 1
        if status >= 400:
            self.rejected += 1
        counter = self._request_counters.get((route, status))
        if counter is None:
            counter = self._request_counters[route, status] = (
                self.telemetry.metrics.counter(
                    "http.requests", route=route, status=str(status)))
        counter.inc()
        tracer = self.telemetry.tracer
        if tracer.enabled and status >= 400:
            # Only anomalies become spans. Healthy traffic is already
            # covered by the counters/latency histograms and by the
            # per-job ingress trace; a span per request would roughly
            # triple tracing's hot-path cost and flood the span shipper
            # at storm rates.
            span = tracer.begin(f"http {route}", component=self.name,
                                start=now, mtype=route)
            span.args["status"] = status
            tracer.finish(span, now, "rejected")

    def observe_latency(self, route: str, elapsed_ms: float) -> None:
        """Called by the I/O wrapper, which owns the request clock."""
        self.telemetry.metrics.histogram(
            "http.latency_ms", bounds=LATENCY_BUCKETS_MS,
            route=route).observe(elapsed_ms)

    # -- routing --------------------------------------------------------------
    def handle(self, method: str, path: str, body: bytes,
               now: float) -> tuple[int, Union[dict, str], str]:
        """Route one request; returns ``(status, payload, route_label)``.

        ``payload`` is a JSON document (dict) for most routes, or
        pre-rendered text (str) for the routes in :data:`TEXT_ROUTES` —
        render either with :func:`render_payload`.
        """
        path, _, query = path.partition("?")
        path = path.rstrip("/") or "/"
        segments = [s for s in path.split("/") if s]
        status, doc, route = self._route(method, path, segments, body,
                                         query, now)
        self._account(route, status, now)
        return status, doc, route

    def _route(self, method: str, path: str, segments: list[str],
               body: bytes, query: str, now: float
               ) -> tuple[int, Union[dict, str], str]:
        if path == "/jobs":
            if method == "POST":
                return (*self._submit(body, now), "POST /jobs")
            if method == "GET":
                return (*self._list_jobs(), "GET /jobs")
            return 405, {"error": f"{method} not allowed on {path}"}, "/jobs"
        if path == "/jobs/batch":
            if method != "POST":
                return (405, {"error": f"{method} not allowed on {path}"},
                        "POST /jobs/batch")
            return (*self._submit_batch(body, now), "POST /jobs/batch")
        if len(segments) == 2 and segments[0] == "jobs":
            if method != "GET":
                return (405, {"error": f"{method} not allowed on {path}"},
                        "GET /jobs/{id}")
            return (*self._get_job(segments[1]), "GET /jobs/{id}")
        if (len(segments) == 3 and segments[0] == "jobs"
                and segments[2] == "cancel"):
            if method != "POST":
                return (405, {"error": f"{method} not allowed on {path}"},
                        "POST /jobs/{id}/cancel")
            return (*self._cancel(segments[1], now), "POST /jobs/{id}/cancel")
        if path == "/queue" and method == "GET":
            return (*self._queue(), "GET /queue")
        if path == "/health" and method == "GET":
            return (*self._health(now), "GET /health")
        if path == "/metrics" and method == "GET":
            return (200, render_prometheus(self.telemetry.metrics.snapshot()),
                    "GET /metrics")
        if path == "/metrics.json" and method == "GET":
            return (200, self.telemetry.metrics.snapshot(),
                    "GET /metrics.json")
        if path == "/events" and method == "GET":
            return (*self._events(query), "GET /events")
        if path == "/telemetry/sites" and method == "POST":
            return (*self._sites(body), "POST /telemetry/sites")
        if path == "/telemetry/gossip" and method == "POST":
            return (*self._gossip(body), "POST /telemetry/gossip")
        return 404, {"error": f"no route for {method} {path}"}, "none"

    # -- handlers -------------------------------------------------------------
    def _submit(self, body: bytes, now: float) -> tuple[int, dict]:
        try:
            spec = json.loads(body) if body else None
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "body is not valid JSON"}
        if not isinstance(spec, dict):
            return 400, {"error": "job spec must be a JSON object"}
        if "id" in spec:
            return 400, {"error": "job spec may not carry 'id' "
                                  "(the gateway assigns ids)"}
        tracer = self.telemetry.tracer
        ingress = None
        if tracer.enabled:
            # The root of the job's end-to-end trace. Its context is
            # journaled with the submission and rides inside the work
            # unit, so scheduler assignment, every client incarnation's
            # work slices, requeues, and completion all chain back here.
            # parent=None always: the HTTP layer keeps no ambient span,
            # so skip the current_ctx() lookup on this hot path.
            ingress = tracer.begin("job ingress", component=self.name,
                                   start=now, mtype="POST /jobs")
        job = self.work.submit(
            spec, now,
            trace=None if ingress is None
            else (ingress.trace_id, ingress.span_id))
        if ingress is not None:
            ingress.args["job_id"] = job.id
            tracer.finish(ingress, now)
        return 201, {"id": job.id, "state": job.state,
                     "submitted_at": job.submitted_at}

    def _submit_batch(self, body: bytes, now: float) -> tuple[int, dict]:
        """N specs, one journal flush. Validation is atomic: a single
        bad spec 400s the whole batch and nothing is journaled — an ME
        pushing a generation either gets every task accepted or none."""
        try:
            doc = json.loads(body) if body else None
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "body is not valid JSON"}
        specs = doc.get("specs") if isinstance(doc, dict) else None
        if not isinstance(specs, list) or not specs:
            return 400, {"error": "body must be {'specs': [spec, ...]} "
                                  "with at least one spec"}
        if len(specs) > MAX_BATCH_JOBS:
            return 400, {"error": f"batch too large "
                                  f"(max {MAX_BATCH_JOBS} specs)"}
        for i, spec in enumerate(specs):
            if not isinstance(spec, dict):
                return 400, {"error": f"specs[{i}] is not a JSON object"}
            if "id" in spec:
                return 400, {"error": f"specs[{i}] may not carry 'id' "
                                      "(the gateway assigns ids)"}
        tracer = self.telemetry.tracer
        ingress = None
        if tracer.enabled:
            # One ingress root for the whole generation: every job in
            # the batch parents on it, mirroring the one-flush journal.
            ingress = tracer.begin("job ingress", component=self.name,
                                   start=now, mtype="POST /jobs/batch")
        jobs = self.work.submit_batch(
            specs, now,
            trace=None if ingress is None
            else (ingress.trace_id, ingress.span_id))
        if ingress is not None:
            ingress.args["jobs"] = len(jobs)
            tracer.finish(ingress, now)
        return 201, {"ids": [job.id for job in jobs], "count": len(jobs),
                     "state": "queued", "submitted_at": now}

    def _list_jobs(self) -> tuple[int, dict]:
        ids = list(self.work.jobs)
        return 200, {
            "counts": self.work.counts(),
            "jobs": ids[-MAX_LISTED_JOBS:],
            "truncated": len(ids) > MAX_LISTED_JOBS,
        }

    def _get_job(self, job_id: str) -> tuple[int, dict]:
        job = self.work.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}
        return 200, job.to_dict()

    def _cancel(self, job_id: str, now: float) -> tuple[int, dict]:
        job = self.work.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}
        if job.state == "done":
            return 409, {"error": f"job {job_id!r} already finished",
                         "id": job.id, "state": job.state}
        job = self.work.cancel(job_id, now)
        return 200, {"id": job.id, "state": job.state,
                     "finished_at": job.finished_at}

    def _events(self, query: str) -> tuple[int, Union[dict, str]]:
        params = _query_params(query)
        try:
            since = int(params.get("since", "-1"))
            limit = int(params.get("limit", "500"))
        except ValueError:
            return 400, {"error": "since/limit must be integers"}
        return 200, render_jsonl(self.events.since(since, limit=limit))

    def _sites(self, body: bytes) -> tuple[int, dict]:
        """Collector-computed per-site utilisation, pushed by the serve
        harness (the process that owns the collector). Lands as labelled
        gauges so /metrics exposes delivered-vs-available per site."""
        try:
            doc = json.loads(body) if body else None
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "body is not valid JSON"}
        sites = (doc or {}).get("sites") if isinstance(doc, dict) else None
        if not isinstance(sites, dict):
            return 400, {"error": "body must be {'sites': {...}}"}
        metrics = self.telemetry.metrics
        for site in sorted(sites):
            row = sites[site]
            if not isinstance(row, dict):
                continue
            for field, gauge in (("delivered_ops", "site.delivered_ops"),
                                 ("available_ops", "site.available_ops"),
                                 ("utilisation", "site.utilisation"),
                                 ("clients", "site.clients")):
                if field in row:
                    try:
                        metrics.gauge(gauge, site=site).set(
                            float(row[field]))
                    except (TypeError, ValueError):
                        pass
        return 200, {"ok": True, "sites": len(sites)}

    #: Pool-wide GossipStats fields accepted by ``POST /telemetry/gossip``
    #: and the gauge each lands as (DESIGN §15).
    GOSSIP_FIELDS = (
        ("digest_rounds", "gossip.digest_rounds"),
        ("delta_records", "gossip.delta_records"),
        ("bytes_sent", "gossip.bytes_sent"),
        ("bytes_saved", "gossip.bytes_saved"),
        ("members", "gossip.members"),
        ("registered", "gossip.registered"),
        ("tombstones_created", "gossip.tombstones_created"),
        ("evictions", "gossip.evictions"),
    )

    def _gossip(self, body: bytes) -> tuple[int, dict]:
        """Pool-wide gossip sync-plane rollup, pushed by whichever process
        owns the Gossip pool (e.g. :func:`repro.experiments.bigpool.
        gossip_rollup`). Lands as ``gossip.*`` gauges — digest rounds,
        delta records shipped, bytes saved vs full-sync — plus per-state
        suspicion transition counts, so /metrics exposes the anti-entropy
        plane's health."""
        try:
            doc = json.loads(body) if body else None
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "body is not valid JSON"}
        pool = (doc or {}).get("gossip") if isinstance(doc, dict) else None
        if not isinstance(pool, dict):
            return 400, {"error": "body must be {'gossip': {...}}"}
        metrics = self.telemetry.metrics
        for field, gauge in self.GOSSIP_FIELDS:
            if field in pool:
                try:
                    metrics.gauge(gauge).set(float(pool[field]))
                except (TypeError, ValueError):
                    pass
        transitions = pool.get("suspicion")
        if isinstance(transitions, dict):
            for state in sorted(transitions):
                try:
                    metrics.gauge("gossip.suspicion_transitions",
                                  to=str(state)).set(
                                      float(transitions[state]))
                except (TypeError, ValueError):
                    pass
        return 200, {"ok": True}

    def _queue(self) -> tuple[int, dict]:
        return 200, {"depth": len(self.work), **self.work.stats()}

    def _health(self, now: float) -> tuple[int, dict]:
        return 200, {
            "ok": True,
            "node": self.name,
            "uptime": now - self.started_at,
            "requests": self.requests,
            "rejected": self.rejected,
            "jobs": self.work.counts(),
        }

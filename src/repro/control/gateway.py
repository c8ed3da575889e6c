"""The gateway's request router, sans-IO.

:class:`GatewayCore` maps ``(method, path, body)`` to ``(status, JSON
document)`` over a :class:`~repro.control.workqueue.WorkQueue` — and
*only* that: no sockets, no clocks of its own. :func:`http_app` puts
HTTP around it, and :class:`~repro.control.component.GatewayComponent`
serves that app on both planes: on the live gateway node under
``NetDriver``, whose HTTP connections reach it as byte-stream segments,
and on the simulated twin, whose segments carry the same bytes. One
routing table, one protocol, one server, two transports — the same
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
    GET  /events            job-lifecycle feed, JSONL (long-poll capable)
    POST /telemetry/sites   per-site utilisation gauges (collector push)
    POST /telemetry/gossip  pool-wide gossip sync-plane gauges (DESIGN §15)

Each route is one row of one table, keyed by ``(method, path
template)``: its handler, its telemetry label, its content type, whether
it takes a JSON body and whether it may park. Dispatch, :data:`ROUTES`,
:data:`TEXT_ROUTES`, the long-poll and the answer to a known path asked
with another method (405) all read that table.

Every request lands in per-route telemetry: a request counter labelled
``{route, status}``, a latency histogram per route (observed by the I/O
wrapper, which owns the clock), and a trace span per request. A POST
/jobs additionally roots the job's end-to-end trace: the ingress span's
context is journaled with the submission and stamped into the work unit
so every downstream actor parents on it.

Text routes (/metrics, /events) return a ``str`` payload instead of a
JSON document, and ``GET /jobs/{id}`` of a finished job returns the
``bytes`` body its terminal record carries (DESIGN §13, "What a finished
job holds"); I/O wrappers render any of the three with
:func:`render_payload`.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple, Optional, Union
from urllib.parse import parse_qsl

from ..core.telemetry import Telemetry
from ..obs.events import render_jsonl
from ..obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from ..obs.prom import render_prometheus
from .http import HttpApp, json_response, text_response
from .workqueue import JOB_STATES, MAX_LISTED_JOBS, WorkQueue

__all__ = ["GatewayCore", "ROUTES", "TEXT_ROUTES", "http_app",
           "render_payload"]

#: Latency buckets for the per-route histograms (milliseconds).
LATENCY_BUCKETS_MS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
                      100.0, 250.0, 1000.0)

#: ``POST /jobs/batch`` accepts at most this many specs per request.
MAX_BATCH_JOBS = 10_000
#: Cap on ``GET /events?wait=`` long-polls, seconds of the app's clock.
MAX_EVENT_WAIT = 30.0


def render_payload(status: int, payload: Union[dict, str, bytes],
                   route: str, close: bool = False) -> bytes:
    """One response frame for any payload kind the router returns: a
    JSON document (dict), a pre-rendered JSON body (bytes, served as is)
    or pre-rendered text (str, content type per :data:`TEXT_ROUTES`).
    Every I/O wrapper — live node, bench child, HTTP tests — renders
    through this, so text routes can't drift."""
    if isinstance(payload, str):
        return text_response(
            status, payload,
            content_type=TEXT_ROUTES.get(route, "text/plain; charset=utf-8"),
            close=close)
    return json_response(status, payload, close=close)


def _events_query(query: str) -> tuple[int, int, float]:
    """``(since, limit, wait)`` of a ``GET /events`` query; ``ValueError``
    unless since and limit are integers, limit ≥ 0, and wait a finite
    number ≥ 0 (a NaN wait would never pass its deadline)."""
    params = dict(parse_qsl(query, keep_blank_values=True))
    since = int(params.get("since", "-1"))
    limit = int(params.get("limit", "500"))
    wait = float(params.get("wait", "0"))
    if limit < 0 or not (math.isfinite(wait) and wait >= 0):
        raise ValueError("negative limit or wait")
    return since, limit, wait


class GatewayCore:
    """Routing + validation over a WorkQueue (see module docstring)."""

    def __init__(self, name: str, work: WorkQueue,
                 telemetry: Optional[Telemetry] = None,
                 started_at: float = 0.0) -> None:
        self.name = name
        self.work = work
        #: The queue owns the job lifecycle, so it owns the telemetry and
        #: the /events feed: the router adopts both, or hands the queue
        #: the caller's telemetry.
        if telemetry is not None:
            work.telemetry = telemetry
        self.telemetry = work.telemetry
        self.events = work.events
        self.started_at = started_at
        self.requests = 0
        self.rejected = 0
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

    def observe_latency(self, route: str, elapsed_ms: float) -> None:
        """Called by the I/O wrapper, which owns the request clock."""
        self.telemetry.metrics.histogram(
            "http.latency_ms", bounds=LATENCY_BUCKETS_MS,
            route=route).observe(elapsed_ms)

    # -- routing --------------------------------------------------------------
    def handle(self, method: str, path: str, body: bytes,
               now: float) -> tuple[int, Union[dict, str, bytes], str]:
        """Route one request; returns ``(status, payload, route_label)``.

        ``payload`` is a JSON document (dict) for most routes, the
        rendered JSON body (bytes) of a finished job the queue holds as
        bytes, or pre-rendered text (str) for the routes in
        :data:`TEXT_ROUTES` — render any with :func:`render_payload`.
        """
        return self.dispatch(self.resolve(method, path, body), now)

    def resolve(self, method: str, path: str, body: bytes) -> tuple:
        """One request, parsed once: ``(label, route, arg)``. ``route`` is
        its row of :data:`_TABLE`, and ``arg`` the JSON body of a body
        route, the feed query of a route that parks, else the job id of
        the path. Or ``route`` is None and ``arg`` the ``(status, doc)``
        refusing it: 404 for an unknown path, 405 for a known path and
        another method, 400 for a body or feed query that does not
        parse."""
        target, _, query = path.partition("?")
        segments = [s for s in target.split("/") if s]
        path = template = "/" + "/".join(segments)
        job_id = segments[1] if len(segments) > 1 else None
        if path not in _TEMPLATES and job_id is not None:
            # The one path parameter: a job id, the second segment.
            template = "/".join(("", segments[0], "{id}", *segments[2:]))
        route = _TABLE.get((method, template))
        if route is None:
            if template in _TEMPLATES:
                return template, None, (
                    405, {"error": f"{method} not allowed on {path}"})
            return "none", None, (
                404, {"error": f"no route for {method} {path}"})
        try:
            if route.body:
                return route.label, route, json.loads(body) if body else None
            if route.parks:
                return route.label, route, _events_query(query)
        except ValueError:  # a UnicodeDecodeError is one too
            return route.label, None, (400, {"error": (
                "body is not valid JSON" if route.body else
                "since/limit must be integers, limit and wait not "
                "negative, wait finite")})
        return route.label, route, job_id

    def dispatch(self, call: tuple, now: float
                 ) -> tuple[int, Union[dict, str, bytes], str]:
        """Answer and account a request :meth:`resolve` parsed; returns
        what :meth:`handle` does."""
        label, route, arg = call
        status, payload = arg if route is None else route.handler(
            self, arg, now)
        self.requests += 1
        if status >= 400:
            self.rejected += 1
        counter = self._request_counters.get((label, status))
        if counter is None:
            counter = self._request_counters[label, status] = (
                self.telemetry.metrics.counter(
                    "http.requests", route=label, status=str(status)))
        counter.inc()
        tracer = self.telemetry.tracer
        if tracer.enabled and status >= 400:
            # Only anomalies become spans. Healthy traffic is already
            # covered by the counters/latency histograms and by the
            # per-job ingress trace; a span per request would roughly
            # triple tracing's hot-path cost and flood the flight spool
            # at storm rates.
            span = tracer.begin(f"http {label}", component=self.name,
                                start=now, mtype=label)
            span.args["status"] = status
            tracer.finish(span, now, "rejected")
        return status, payload, label

    # -- handlers -------------------------------------------------------------
    def _submit(self, spec, now: float) -> tuple[int, dict]:
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

    def _submit_batch(self, doc, now: float) -> tuple[int, dict]:
        """N specs, one journal flush. Validation is atomic: a single
        bad spec 400s the whole batch and nothing is journaled — an ME
        pushing a generation either gets every task accepted or none."""
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

    def _list_jobs(self, _, now: float) -> tuple[int, dict]:
        counts = self.work.counts()
        return 200, {
            "counts": counts,
            "jobs": self.work.newest(),
            "truncated": counts["total"] > MAX_LISTED_JOBS,
        }

    def _get_job(self, job_id: str,
                 now: float) -> tuple[int, Union[dict, bytes]]:
        job = self.work.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}
        return 200, self.work.document(job)

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

    def _events(self, query: tuple, now: float) -> tuple[int, str]:
        since, limit, _ = query
        return 200, render_jsonl(self.events.since(since, limit=limit))

    def _set_gauge(self, name: str, value, **labels) -> None:
        """Set one pushed gauge; a value that is not a number leaves it as
        it was."""
        try:
            self.telemetry.metrics.gauge(name, **labels).set(float(value))
        except (TypeError, ValueError):
            pass

    #: Per-site fields accepted by ``POST /telemetry/sites``; each lands
    #: as the gauge ``site.<field>``, labelled with its site.
    SITE_FIELDS = ("delivered_ops", "available_ops", "utilisation",
                   "clients")

    def _sites(self, doc, now: float) -> tuple[int, dict]:
        """Collector-computed per-site utilisation, pushed by the serve
        harness (the process that owns the collector). Lands as labelled
        gauges so /metrics exposes delivered-vs-available per site."""
        sites = doc.get("sites") if isinstance(doc, dict) else None
        if not isinstance(sites, dict):
            return 400, {"error": "body must be {'sites': {...}}"}
        for site in sorted(sites):
            row = sites[site]
            if not isinstance(row, dict):
                continue
            for field in self.SITE_FIELDS:
                if field in row:
                    self._set_gauge(f"site.{field}", row[field], site=site)
        return 200, {"ok": True, "sites": len(sites)}

    #: Pool-wide GossipStats fields accepted by ``POST /telemetry/gossip``;
    #: each lands as the gauge ``gossip.<field>`` (DESIGN §15).
    GOSSIP_FIELDS = ("digest_rounds", "delta_records", "bytes_sent",
                     "bytes_saved", "members", "registered",
                     "tombstones_created", "evictions")

    def _gossip(self, doc, now: float) -> tuple[int, dict]:
        """Pool-wide gossip sync-plane rollup, pushed by whichever process
        owns the Gossip pool (e.g. :func:`repro.experiments.bigpool.
        gossip_rollup`). Lands as ``gossip.*`` gauges — digest rounds,
        delta records shipped, bytes saved vs full-sync — plus per-state
        suspicion transition counts, so /metrics exposes the anti-entropy
        plane's health."""
        pool = doc.get("gossip") if isinstance(doc, dict) else None
        if not isinstance(pool, dict):
            return 400, {"error": "body must be {'gossip': {...}}"}
        for field in self.GOSSIP_FIELDS:
            if field in pool:
                self._set_gauge(f"gossip.{field}", pool[field])
        transitions = pool.get("suspicion")
        if isinstance(transitions, dict):
            for state in sorted(transitions):
                self._set_gauge("gossip.suspicion_transitions",
                                transitions[state], to=str(state))
        return 200, {"ok": True}

    def _metrics(self, _, now: float) -> tuple[int, str]:
        """The exposition, with the queue's size set at scrape time: jobs
        per state, and how many of them the process holds in memory (a
        finished job is a range of the journal)."""
        metrics = self.telemetry.metrics
        counts = self.work.counts()
        for state in JOB_STATES:
            metrics.gauge("workqueue.jobs", state=state).set(counts[state])
        metrics.gauge("workqueue.jobs_held").set(len(self.work.jobs))
        return 200, render_prometheus(metrics.snapshot())

    def _queue(self, _, now: float) -> tuple[int, dict]:
        return 200, {"depth": len(self.work), **self.work.stats()}

    def _health(self, _, now: float) -> tuple[int, dict]:
        return 200, {
            "ok": True,
            "node": self.name,
            "uptime": now - self.started_at,
            "requests": self.requests,
            "rejected": self.rejected,
            "jobs": self.work.counts(),
        }


class _Route(NamedTuple):
    """One row of :data:`_TABLE`: its telemetry label, which is its key
    too; its handler, ``(core, arg, now) -> (status, payload)``; the
    content type of its text payload (None: a JSON document); whether it
    takes a JSON body; and whether it may park as a long-poll."""

    label: str
    handler: Callable
    text: Optional[str] = None
    body: bool = False
    parks: bool = False


#: The one route table, ``(method, path template)`` -> its row.
_TABLE = {tuple(route.label.split(" ")): route for route in (
    _Route("POST /jobs", GatewayCore._submit, body=True),
    _Route("POST /jobs/batch", GatewayCore._submit_batch, body=True),
    _Route("GET /jobs", GatewayCore._list_jobs),
    _Route("GET /jobs/{id}", GatewayCore._get_job),
    _Route("POST /jobs/{id}/cancel", GatewayCore._cancel),
    _Route("GET /queue", GatewayCore._queue),
    _Route("GET /health", GatewayCore._health),
    _Route("GET /metrics", GatewayCore._metrics, text=PROM_CONTENT_TYPE),
    _Route("GET /events", GatewayCore._events, text="application/x-ndjson",
           parks=True),
    _Route("POST /telemetry/sites", GatewayCore._sites, body=True),
    _Route("POST /telemetry/gossip", GatewayCore._gossip, body=True),
)}
#: Every path template of the table, whatever its method.
_TEMPLATES = {template for _, template in _TABLE}

#: Route keys as they appear in telemetry labels.
ROUTES = tuple(route.label for route in _TABLE.values())

#: Routes whose payload is pre-rendered text, and the content type each
#: is served under.
TEXT_ROUTES = {route.label: route.text for route in _TABLE.values()
               if route.text is not None}


def http_app(core: GatewayCore, clock: Callable[[], float]) -> HttpApp:
    """The gateway's HTTP app, live and on the twin: ``core`` routes each
    request at ``clock``'s time, which also times it for the latency
    histograms. A ``GET /events?wait=`` long-poll with nothing new parks
    (returns ``None``) until the feed moves or its wait, capped at
    :data:`MAX_EVENT_WAIT`, runs out; its connection re-offers it. The
    app resolves a request on its first offer and keeps the result on
    the request, so a re-offer parses nothing again."""

    def parks(request, call: tuple, now: float) -> bool:
        _, route, arg = call
        if route is None or not route.parks:
            return False
        since, _, wait = arg
        if wait == 0 or core.events.since(since, limit=1):
            return False
        if request.deadline is None:
            request.deadline = now + min(wait, MAX_EVENT_WAIT)
        return now < request.deadline

    def app(request) -> Optional[bytes]:
        now = clock()
        call = request.parsed
        if call is None:
            call = request.parsed = core.resolve(
                request.method, request.path, request.body)
        if parks(request, call, now):
            return None
        status, payload, route = core.dispatch(call, now)
        core.observe_latency(route, (clock() - now) * 1000.0)
        return render_payload(status, payload, route, close=request.close)

    return app

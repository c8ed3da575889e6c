"""``repro.api.obs`` — the observability plane (DESIGN §14).

Wall-clock observability over the control and deployment planes:
end-to-end job tracing (:func:`job_trace` / :func:`render_job_trace`
walk one submission's causal chain across processes and incarnations),
the per-incarnation :class:`FlightRecorder` spool — the one carrier of
a live node's spans and logs, recovered once by the supervisor when the
process exits — Prometheus text exposition for the gateway's
``/metrics`` (:func:`render_prometheus` / :func:`parse_prometheus`),
the job-lifecycle :class:`EventLog` behind ``GET /events``, and the
``repro top`` live dashboard (:func:`run_top`).
"""

from __future__ import annotations

from .._exports import lazy_exports

_EXPORTS = {
    "..obs.events": ("EventLog",),
    "..obs.flight": ("FlightRecorder", "flight_path", "load_flight"),
    "..obs.jobtrace": ("job_trace", "load_spans", "render_job_trace",
                       "span_origin"),
    "..obs.prom": ("parse_prometheus", "render_prometheus", "sample_value"),
    "..obs.top": ("build_frame", "render_top", "run_top"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

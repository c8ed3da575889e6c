"""The wall-clock observability plane (DESIGN.md §14).

Rides the deterministic :mod:`repro.core.telemetry` primitives across
process boundaries: end-to-end job traces stitched from every node's
flight spools (each incarnation's crash-surviving spool is the one
carrier of its spans and logs), Prometheus text exposition + a
long-poll /events feed on the gateway, and the ``repro top`` terminal
dashboard. Everything here is stdlib-only and
strictly additive — simulated-plane runs stay byte-identical and the
telemetry-off overhead gate still holds.
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".events": ("EventLog", "parse_jsonl", "render_jsonl"),
    ".flight": ("FlightRecorder", "flight_path", "load_flight"),
    ".jobtrace": ("ID_BLOCK", "MAX_INCARNATIONS", "job_trace", "load_spans",
                  "render_job_trace", "span_origin"),
    ".prom": ("CONTENT_TYPE", "parse_prometheus", "render_prometheus",
              "sample_value", "split_metric_key"),
    ".top": ("build_frame", "render_top", "run_top"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

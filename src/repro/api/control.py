"""``repro.api.control`` — the workload-management control plane.

The HTTP/JSON job gateway (ROADMAP item 2): a durable
:class:`WorkQueue` behind diracx-style job routes, served on the live
reactor by :class:`HttpServer` + :class:`GatewayCore` and mirrored
deterministically under simulated time by :func:`run_sim_serve`.
:func:`run_serve` stands up the whole control-plane world as real
processes and storms it with :class:`GatewayStorm`.
"""

from __future__ import annotations

from .._exports import lazy_exports

_EXPORTS = {
    "..control.client": ("GatewayClient",),
    "..control.gateway": ("GatewayCore", "render_payload"),
    "..control.http": ("HttpDecoder", "HttpError", "HttpRequest",
                       "HttpResponseDecoder", "HttpServer", "error_response",
                       "json_response", "text_response"),
    "..control.loadgen": ("GatewayStorm", "StormStats"),
    "..control.serve": ("ServeConfig", "ServeReport",
                        "check_serve_invariants", "ramsey_job_spec",
                        "run_serve"),
    "..control.sim": ("GatewayComponent", "SimJobUser", "SimJobWorker",
                      "run_sim_serve"),
    "..control.workqueue": ("FileJournal", "JOB_STATES", "Job",
                            "MemoryJournal", "WorkQueue"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

"""The workload-management control plane (ROADMAP item 2).

An HTTP/JSON job gateway over the EveryWare world: external users
submit, query, and cancel jobs through plain HTTP; downward the gateway
is an unmodified :class:`~repro.core.services.scheduler.SchedulerServer`
whose :class:`WorkQueue` work source is fed by those submissions, so
computational clients pull externally-submitted jobs over the usual
SCH_* protocol. The same sans-IO router (:class:`GatewayCore`) serves
both planes: real sockets on the live reactor
(:class:`~repro.control.http.HttpServer`), lingua-franca messages under
simulated time (:class:`~repro.control.sim.GatewayComponent`).
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".client": ("GatewayClient",),
    ".gateway": ("GatewayCore", "ROUTES", "TEXT_ROUTES", "render_payload"),
    ".http": ("HttpDecoder", "HttpError", "HttpRequest",
              "HttpResponseDecoder", "HttpServer", "error_response",
              "json_response", "text_response"),
    ".loadgen": ("GatewayStorm", "StormStats"),
    ".sim": ("GatewayComponent", "SimJobUser", "run_sim_batch",
             "run_sim_serve"),
    ".serve": ("ServeConfig", "ServeReport", "check_serve_invariants",
               "run_serve"),
    ".workqueue": ("FileJournal", "Job", "JOB_STATES", "MemoryJournal",
                   "WorkQueue"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

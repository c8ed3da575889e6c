"""The workload-management control plane (ROADMAP item 2).

An HTTP/JSON job gateway over the EveryWare world: external users
submit, query, and cancel jobs through plain HTTP; downward the gateway
is an unmodified :class:`~repro.core.services.scheduler.SchedulerServer`
whose :class:`WorkQueue` work source is fed by those submissions, so
computational clients pull externally-submitted jobs over the usual
SCH_* protocol. One class is the gateway on both planes,
:class:`~repro.control.component.GatewayComponent`: the live gateway
node runs it under ``NetDriver``, whose stream listener hands it each
HTTP connection, and the twin under simulated time, its users on
:class:`~repro.control.sim.HttpUser`; its router is the sans-IO
:class:`GatewayCore`. A :class:`~repro.control.scenario.Scenario` is one
workload on this plane, run on either.
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".client": ("GatewayClient",),
    ".component": ("GatewayComponent",),
    ".gateway": ("GatewayCore", "ROUTES", "TEXT_ROUTES", "render_payload"),
    ".http": ("HttpDecoder", "HttpError", "HttpRequest",
              "HttpResponseDecoder", "HttpServer", "error_response",
              "json_response", "text_response"),
    ".loadgen": ("GatewayStorm", "StormStats"),
    ".scenario": ("Scenario", "check_scenario", "run_scenario"),
    ".sim": ("HttpUser",),
    ".workqueue": ("FileJournal", "Job", "JOB_STATES", "MemoryJournal",
                   "WorkQueue"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

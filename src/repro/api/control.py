"""``repro.api.control`` — the workload-management control plane.

The HTTP/JSON job gateway (ROADMAP item 2): a durable
:class:`WorkQueue` behind diracx-style job routes (:class:`GatewayCore`),
served by one class on both planes, :class:`GatewayComponent` — under
``NetDriver`` on the live gateway node, over the same HTTP in simulated
segments under simulated time on the twin. (:class:`HttpServer`, a
listener of its own that holds no long-poll, serves the benchmarks'
gateway children.) A
:class:`Scenario` — synthetic users (:class:`GatewayStorm` live,
:class:`HttpUser` on the twin), an ME driver or a batch of specs, plus
one fault — runs on either world through :func:`run_scenario`, judged by
:func:`check_scenario`.
"""

from __future__ import annotations

from .._exports import lazy_exports

_EXPORTS = {
    "..control.client": ("GatewayClient",),
    "..control.component": ("GatewayComponent",),
    "..control.gateway": ("GatewayCore", "render_payload"),
    "..control.http": ("HttpDecoder", "HttpError", "HttpRequest",
                       "HttpResponseDecoder", "HttpServer", "error_response",
                       "json_response", "text_response"),
    "..control.loadgen": ("GatewayStorm", "StormStats"),
    "..control.scenario": ("Scenario", "check_scenario", "run_scenario"),
    "..control.sim": ("HttpUser",),
    "..control.workqueue": ("FileJournal", "JOB_STATES", "Job",
                            "MemoryJournal", "WorkQueue"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

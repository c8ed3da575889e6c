"""``repro.api.core`` — the plane-agnostic programming model.

Everything here runs identically under simulated and wall-clock time:
the sans-IO :class:`Component` contract and its effects, the
retry/time-out policies drivers execute, the observability plane
(metrics registry + causal tracer + profiler + exporters), the NWS
forecasting machinery, the lingua-franca :class:`Message`, the
EveryWare services (gossip, scheduler, persistent state, logging, the
app-kind registry), and the Ramsey application components. No sockets,
no simulated grid — those live in :mod:`repro.api.net` and
:mod:`repro.api.sim`.
"""

from __future__ import annotations

from .._exports import lazy_exports

_EXPORTS = {
    # components and effects
    "..core.component": ("CancelTimer", "Component", "Effect", "LogLine",
                         "NullRuntime", "Send", "SetTimer", "Stop"),
    # retry / timeout policies
    "..core.policy": ("RetryPolicy", "TimeoutPolicy"),
    # observability
    "..core.telemetry": ("MetricsRegistry", "Span", "Telemetry",
                         "TraceContext", "Tracer", "export_chrome_trace",
                         "render_timeline", "write_metrics_json",
                         "write_trace_json"),
    "..simgrid.profile": ("EngineProfiler",),
    # the lingua franca wire format
    "..core.linguafranca.messages": ("Message",),
    # dynamic benchmarking / forecasting (§2.2)
    "..core.forecasting.benchmarking": ("ForecastRegistry", "event_tag"),
    "..core.forecasting.selector": ("ForecasterBank",),
    # gossip and services
    "..core.gossip.state": ("ComparatorRegistry", "StateStore"),
    "..core.gossip.agent": ("GossipAgent",),
    "..core.gossip.server": ("GossipServer", "GossipStats"),
    "..core.gossip.digest": ("StateDigest", "plan_exchange"),
    "..core.gossip.swim": ("SuspicionTable",),
    "..core.gossip.clique": ("plan_shards",),
    "..core.services.logging": ("LoggingServer",),
    "..core.services.persistent": ("PersistentStateServer",),
    "..core.services.scheduler": ("QueueWorkSource", "SchedulerServer"),
    # app-agnostic work-unit kinds (§3.1 distrust, pluggable engines)
    "..core.services.kinds": ("AppKind", "KindEngine", "KindRegistry",
                              "MeteredEngine", "ResultCheckError", "kind_of",
                              "register_kind"),
    # application: Ramsey search
    "..ramsey.client": ("RAMSEY_BEST", "ModelEngine", "RamseyClient",
                        "RealEngine", "ramsey_comparator"),
    "..ramsey.graphs": ("Coloring",),
    "..ramsey.heuristics": ("TabuSearch",),
    "..ramsey.verify": ("is_counter_example", "counter_example_validator"),
    "..ramsey.tasks": ("ramsey_job_spec", "unit_generator"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

"""The supported public surface of the EveryWare reproduction.

Everything an application, experiment, or example needs is re-exported
here under one roof::

    from repro.api import Component, Send, RetryPolicy, FaultPlan, ...

and the surface is *layered* — each layer is its own importable module
for callers that want exactly one plane:

* :mod:`repro.api.core` — the plane-agnostic programming model:
  components and effects, retry/time-out policies, observability,
  forecasting, the lingua-franca :class:`Message`, the EveryWare
  services, and the Ramsey application.
* :mod:`repro.api.sim` — the simulated grid: :class:`SimDriver`, the
  simgrid fabric and fault injectors, the compute plane, and the
  prebuilt experiment worlds (SC98, chaos, observe).
* :mod:`repro.api.net` — real sockets: the :class:`EventLoop` reactor,
  TCP endpoints, :class:`NetDriver`, and the transport benchmark.
* :mod:`repro.api.live` — the deployment plane: topologies, manifests,
  the supervisor/collector, and :func:`run_live`.
* :mod:`repro.api.control` — the workload-management control plane: the
  HTTP/JSON job gateway, its durable :class:`WorkQueue`, the synthetic
  user storm, and the ``repro serve`` harnesses (live + simulated twin).
* :mod:`repro.api.obs` — the observability plane: end-to-end job
  tracing, the per-node flight recorder, Prometheus text exposition,
  and the ``repro top`` dashboard.
* :mod:`repro.api.explore` — the model-exploration plane: the
  EMEWS-style :class:`ExploreQueue`, the ME algorithms, and the
  ``repro explore`` harnesses (live + simulated twin).

Importing a name from ``repro.api`` directly keeps working for every
previously public name (the flat-module compatibility contract, frozen
by ``tests/api/test_surface.py``); resolution is lazy, so pulling one
``core`` name does not import the live or control planes. Anything
*not* listed in :func:`surface` is an internal detail that may move
between releases and is not reachable through ``repro.api``.
"""

from __future__ import annotations

import importlib

#: The public contract, by layer. ``repro info --api`` dumps exactly
#: this structure and the golden-surface test freezes it; adding a name
#: here is an API addition, removing one is a compatibility break.
_LAYERS: dict[str, tuple[str, ...]] = {
    "core": (
        # components and effects
        "CancelTimer", "Component", "Effect", "LogLine", "NullRuntime",
        "Send", "SetTimer", "Stop",
        # policies
        "RetryPolicy", "TimeoutPolicy",
        # observability
        "MetricsRegistry", "Span", "Telemetry", "TraceContext", "Tracer",
        "export_chrome_trace", "render_timeline", "write_metrics_json",
        "write_trace_json", "EngineProfiler",
        # lingua franca
        "Message",
        # forecasting
        "ForecastRegistry", "ForecasterBank", "default_bank", "event_tag",
        # gossip and services
        "ComparatorRegistry", "GossipAgent", "GossipServer", "GossipStats",
        "StateDigest", "StateStore", "SuspicionTable", "plan_exchange",
        "plan_shards",
        "LoggingServer", "PersistentStateServer", "QueueWorkSource",
        "SchedulerServer", "TaskFarmMaster", "TaskFarmWorker",
        # Ramsey application
        "RAMSEY_BEST", "Coloring", "ModelEngine", "RamseyClient",
        "RealEngine", "TabuSearch", "is_counter_example",
        "ramsey_comparator", "unit_generator", "counter_example_validator",
        # app-agnostic work-unit kinds
        "AppKind", "KindEngine", "KindRegistry", "ResultCheckError",
        "kind_of", "register_kind",
    ),
    "sim": (
        "SimDriver",
        # simulated grid
        "Environment", "Host", "HostSpec", "ConstantLoad",
        "MeanRevertingLoad", "Address", "AddressError", "Network",
        "RngStreams",
        # fault injection
        "FaultPlan", "FaultStats", "HostCrash", "InfraOutage",
        "MessageChaos", "SitePartition",
        # compute plane
        "ComputeLane", "EvalRound", "EvalResult", "InlineLane", "PoolLane",
        "Recount", "RecountResult", "StepBatch", "StepBatchResult",
        "make_lane", "run_scaling", "run_task",
        # scenarios and experiment harnesses
        "run_farm", "ServiceCore", "build_core", "model_client_factory",
        "SC98Config", "SC98Results", "SC98World", "build_sc98",
        "render_fig2", "render_fig3a", "render_fig3b",
        "render_grid_criteria", "render_headlines",
        "PROFILES", "ChaosConfig", "ChaosReport", "build_plan",
        "run_chaos", "run_chaos_matrix",
        "ObserveConfig", "ObserveWorld", "requeue_chains", "run_observe",
        # scale pools (DESIGN §15)
        "BigPool", "PoolConfig", "build_pool", "churn_plan",
        "export_state", "gossip_rollup", "inject_write",
        "run_until_converged",
    ),
    "net": (
        "NetDriver", "AsyncSender", "EventLoop", "TcpClient", "TcpServer",
        "run_netbench",
    ),
    "live": (
        "Collector", "LiveReport", "Manifest", "NodeSpec", "RestartPolicy",
        "Supervisor", "Topology", "build_manifest", "check_invariants",
        "run_live", "sc98_topology", "serve_topology",
    ),
    "control": (
        "FileJournal", "GatewayClient", "GatewayComponent", "GatewayCore",
        "GatewayStorm", "HttpDecoder", "HttpError", "HttpRequest",
        "HttpResponseDecoder", "HttpServer", "JOB_STATES", "Job",
        "MemoryJournal", "ServeConfig", "ServeReport", "SimJobUser",
        "SimJobWorker", "StormStats", "WorkQueue",
        "check_serve_invariants", "error_response", "json_response",
        "ramsey_job_spec", "render_payload", "run_serve", "run_sim_serve",
        "text_response",
    ),
    "obs": (
        "EventLog", "FlightRecorder", "build_frame", "flight_path",
        "job_trace", "load_flight", "load_spans", "parse_prometheus",
        "render_job_trace", "render_prometheus", "render_top", "run_top",
        "sample_value", "span_origin",
    ),
    "explore": (
        "EVAL_FUNCTIONS", "EVAL_KIND", "ExploreConfig", "ExploreEngine",
        "ExploreQueue", "ExploreWorker", "GridSweep", "HillClimber",
        "MEDriverComponent", "check_eval_result", "evaluate",
        "execute_unit", "make_driver", "make_eval_spec", "run_driver",
        "run_explore", "run_sim_explore", "validate_eval",
    ),
}

#: name -> owning layer (each public name has exactly one home).
_HOME: dict[str, str] = {}
for _layer, _names in _LAYERS.items():
    for _name in _names:
        if _name in _HOME:
            raise RuntimeError(
                f"api name {_name!r} claimed by both "
                f"{_HOME[_name]!r} and {_layer!r}")
        _HOME[_name] = _layer
del _layer, _names, _name

__all__ = sorted(_HOME) + sorted(_LAYERS)


def surface() -> dict:
    """The public contract as data: ``{layer: sorted names}`` plus the
    flattened name list. ``repro info --api`` prints this and the golden
    test freezes it."""
    return {
        "layers": {layer: sorted(names) for layer, names in _LAYERS.items()},
        "names": sorted(_HOME),
    }


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is not None:
        value = getattr(importlib.import_module(f".{layer}", __name__), name)
        globals()[name] = value  # cache: next access skips this hook
        return value
    if name in _LAYERS:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(__all__) | {"surface"})

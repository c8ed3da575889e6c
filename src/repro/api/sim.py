"""``repro.api.sim`` — the simulated grid and its experiment worlds.

:class:`SimDriver` runs :mod:`repro.api.core` components under
simulated time on the simgrid fabric (:class:`Environment`,
:class:`Host`, :class:`Network`, load models, fault injectors), one
:class:`SimWorld` assembles that fabric for every topology, the
compute plane runs their heuristic kernels on one
:class:`KernelPool` (inline at zero workers, forked workers otherwise)
with bit-identical results, and the prebuilt experiment harnesses
(:func:`build_sc98`, :func:`run_chaos`, :func:`run_observe`) assemble
whole deterministic worlds.
"""

from __future__ import annotations

from .._exports import lazy_exports

_EXPORTS = {
    # the simulated-time driver
    "..core.simdriver": ("SimDriver", "SimWorld"),
    # simulated grid
    "..simgrid.engine": ("Environment",),
    "..simgrid.host": ("Host", "HostSpec"),
    "..simgrid.load": ("ConstantLoad", "MeanRevertingLoad"),
    "..simgrid.network": ("Address", "AddressError", "Network"),
    "..simgrid.rand": ("RngStreams",),
    # fault injection
    "..simgrid.faults": ("FaultPlan", "FaultStats", "HostCrash",
                         "InfraOutage", "MessageChaos", "SitePartition"),
    # compute plane
    "..parallel.pool": ("KernelPool",),
    "..parallel.kernels": ("EvalRound", "EvalResult", "StepBatch",
                           "StepBatchResult", "run_task"),
    # scenarios and experiment harnesses
    "..experiments.sc98": ("SC98Config", "SC98Results", "SC98World",
                           "build_sc98"),
    "..experiments.report": ("render_fig2", "render_fig3a", "render_fig3b",
                             "render_grid_criteria", "render_headlines"),
    "..experiments.chaos": ("PROFILES", "ChaosConfig", "ChaosReport",
                            "build_plan", "run_chaos", "run_chaos_matrix"),
    "..experiments.observe": ("ObserveConfig", "ObserveWorld",
                              "requeue_chains", "run_observe"),
    # scale pools (DESIGN §15)
    "..experiments.bigpool": ("BigPool", "PoolConfig", "build_pool",
                              "churn_plan", "export_state", "gossip_rollup",
                              "inject_write", "run_until_converged"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

"""The compute plane: kernel offload to real OS processes (§6 scaling).

``kernels`` defines the task slices and their bit-identical reference /
vectorized executors; ``shm`` passes colorings through shared memory;
``pool`` runs a persistent forked worker pool with crash fallback;
``lanes`` is the :class:`ComputeLane` seam the simulation plugs into.
``benchmarks/bench_parallel.py`` measures the throughput/parity curve.
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".kernels": ("EvalResult", "EvalRound", "Recount", "RecountResult",
                 "StepBatch", "StepBatchResult", "run_task"),
    ".lanes": ("ComputeLane", "InlineLane", "PoolLane", "make_lane"),
    ".pool": ("KernelPool",),
    ".shm": ("ShmArena",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

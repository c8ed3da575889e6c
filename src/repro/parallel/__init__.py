"""The compute plane: kernel offload to real OS processes (§6 scaling).

``kernels`` defines the task slices and their bit-identical reference /
vectorized executors; ``pool`` is :class:`KernelPool`, the one place
they run: inline through the reference kernels at zero workers, on
persistent forked workers with crash fallback otherwise.
``benchmarks/bench_parallel.py`` measures the throughput/parity curve.
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".kernels": ("EvalResult", "EvalRound", "StepBatch", "StepBatchResult",
                 "run_task"),
    ".pool": ("KernelPool",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

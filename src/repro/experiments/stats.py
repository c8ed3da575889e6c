"""Robustness statistics for the reproduction's headline claims.

A single seeded run shows the paper's shapes; this module shows they are
not one seed's luck: :func:`seed_sweep` replays the scenario across
seeds, and :func:`bootstrap_ci` puts nonparametric confidence intervals
on the derived quantities (dip ratio, recovery ratio, smoothness CV).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .metrics import coefficient_of_variation
from .sc98 import SC98Config, SC98Results, build_sc98, clock_to_offset

__all__ = ["bootstrap_ci", "SweepOutcome", "seed_sweep", "shape_metrics"]


def bootstrap_ci(
    values: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.mean,
    n_boot: int = 2000,
    alpha: float = 0.05,
    seed: int = 0,
) -> tuple[float, float, float]:
    """(point estimate, lower, upper) percentile-bootstrap interval."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("bootstrap over an empty sample")
    rng = np.random.default_rng(seed)
    point = float(statistic(data))
    if data.size == 1:
        return point, point, point
    stats = np.empty(n_boot)
    for i in range(n_boot):
        sample = data[rng.integers(0, data.size, size=data.size)]
        stats[i] = statistic(sample)
    lower = float(np.quantile(stats, alpha / 2))
    upper = float(np.quantile(stats, 1 - alpha / 2))
    return point, lower, upper


@dataclass
class SweepOutcome:
    """Per-seed shape metrics from one scenario replay."""

    seed: int
    peak: float
    dip: float
    recovery: float
    total_cv: float
    median_part_cv: float
    #: Per-infrastructure rate CVs (same start-up skip as ``total_cv``).
    part_cvs: dict[str, float] = field(default_factory=dict)
    #: Share of post-start-up windows in which work was delivered.
    delivering: float = float("nan")

    @property
    def dip_ratio(self) -> float:
        """Judging dip relative to the peak (paper: 1.1/2.39 ≈ 0.46)."""
        return self.dip / self.peak if self.peak else float("nan")

    @property
    def recovery_ratio(self) -> float:
        """Recovery relative to the peak (paper: 2.0/2.39 ≈ 0.84)."""
        return self.recovery / self.peak if self.peak else float("nan")


def shape_metrics(results: SC98Results) -> SweepOutcome:
    """Extract the seed-comparable shape quantities from one run; the
    first twelfth (at least two windows) is the deployment transient."""
    s = results.series
    skip = max(2, len(s.total_rate) // 12)
    part_cvs = {name: coefficient_of_variation(v, skip=skip)
                for name, v in sorted(s.rate_by_infra.items())}
    _, peak = results.peak()
    return SweepOutcome(
        seed=results.config.seed,
        peak=peak,
        dip=results.judging_dip(),
        recovery=results.recovery(),
        total_cv=coefficient_of_variation(s.total_rate, skip=skip),
        median_part_cv=(float(np.median(list(part_cvs.values())))
                        if part_cvs else float("nan")),
        part_cvs=part_cvs,
        delivering=float(np.mean(s.total_rate[skip:] > 0)),
    )


def seed_sweep(
    seeds: Sequence[int],
    scale: float = 0.15,
    duration: float = SC98Config.duration,
) -> list[SweepOutcome]:
    """Replay the SC98 scenario once per seed, collecting shape metrics."""
    return [shape_metrics(build_sc98(SC98Config(
        scale=scale, seed=seed, duration=duration)).run()) for seed in seeds]

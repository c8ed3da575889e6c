"""Measurement plane for the SC98-style experiments.

The paper reports five-minute averages of delivered integer operations
(Figs. 2–4) computed from its logging facilities; this module does the
same: performance records accumulated by the logging servers are bucketed
into fixed windows, per infrastructure and in total, and host counts are
sampled by a collector process that walks the adapters on the same
cadence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from ..core.services.logging import LoggingServer
from ..infra.base import InfraAdapter
from ..simgrid.engine import Environment

__all__ = ["TimeBuckets", "HostCountSampler", "collect_rate_series",
           "coefficient_of_variation", "SeriesBundle"]


class TimeBuckets:
    """Fixed-width accumulation buckets over [start, start + n*width)."""

    def __init__(self, start: float, width: float, n: int) -> None:
        if width <= 0 or n <= 0:
            raise ValueError("width and n must be positive")
        self.start = start
        self.width = width
        self.n = n
        self.sums = np.zeros(n)
        self.counts = np.zeros(n, dtype=int)

    def index_for(self, t: float) -> Optional[int]:
        idx = int((t - self.start) // self.width)
        return idx if 0 <= idx < self.n else None

    def add(self, t: float, value: float) -> bool:
        idx = self.index_for(t)
        if idx is None:
            return False
        self.sums[idx] += value
        self.counts[idx] += 1
        return True

    def add_many(self, ts: Iterable[float], values: Iterable[float]) -> int:
        """Accumulate many (t, value) pairs in one vectorized pass.

        Returns how many landed in range. Equivalent to calling
        :meth:`add` per pair — including bit-identical float sums:
        ``np.add.at`` is unbuffered and applies its operands in element
        order, so each bucket receives its values in the same order the
        scalar loop would have added them.
        """
        ts = np.asarray(ts, dtype=float)
        values = np.asarray(values, dtype=float)
        if ts.shape != values.shape:
            raise ValueError("ts and values must have the same length")
        if ts.size == 0:
            return 0
        idx = ((ts - self.start) // self.width).astype(int)
        mask = (idx >= 0) & (idx < self.n)
        idx = idx[mask]
        np.add.at(self.sums, idx, values[mask])
        np.add.at(self.counts, idx, 1)
        return int(idx.size)

    def times(self) -> np.ndarray:
        """Bucket start times."""
        return self.start + self.width * np.arange(self.n)

    def rates(self) -> np.ndarray:
        """Per-bucket sum / width — e.g. ops accumulated => ops/second."""
        return self.sums / self.width

    def means(self) -> np.ndarray:
        """Per-bucket mean of added values (NaN for empty buckets)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.counts > 0, self.sums / self.counts, np.nan)


@dataclass
class SeriesBundle:
    """Everything the figures need, keyed per infrastructure."""

    times: np.ndarray
    total_rate: np.ndarray
    rate_by_infra: dict[str, np.ndarray]
    hosts_by_infra: dict[str, np.ndarray]


class HostCountSampler:
    """Samples adapters' active host counts, one engine entry per sample."""

    def __init__(
        self,
        env: Environment,
        adapters: Iterable[InfraAdapter],
        start: float,
        width: float,
        n: int,
    ) -> None:
        self.env = env
        self.adapters = list(adapters)
        self.buckets = {
            a.name: TimeBuckets(start, width, n) for a in self.adapters
        }
        self._start = start
        self._width = width
        self._n = n

    def start_sampling(self, samples_per_bucket: int = 5) -> None:
        self._interval = self._width / samples_per_bucket
        self.env.call(self._begin, urgent=True)

    def _begin(self, tag: int) -> None:
        if self.env.now < self._start:
            self.env.call(self._sample, self._start - self.env.now)
        else:
            self._sample(tag)

    def _sample(self, _tag: int) -> None:
        if self.env.now >= self._start + self._width * self._n:
            return
        for adapter in self.adapters:
            self.buckets[adapter.name].add(
                self.env.now, float(adapter.active_host_count())
            )
        self.env.call(self._sample, self._interval)

    def counts_by_infra(self) -> dict[str, np.ndarray]:
        """Average active host count per bucket, per infrastructure."""
        out = {}
        for name, buckets in self.buckets.items():
            means = buckets.means()
            out[name] = np.nan_to_num(means, nan=0.0)
        return out


def collect_rate_series(
    loggers: Iterable[LoggingServer],
    start: float,
    width: float,
    n: int,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Bucket delivered-ops records from the logging servers.

    Returns (total ops/sec series, per-infra ops/sec series). Records are
    ``kind == 'perf'`` with ``data = {ops, infra, ...}``; each record's ops
    are attributed to the bucket of its server-side receive stamp, exactly
    as the paper's report facilities logged client reports.
    """
    # Gather per-record scalars first (in server/record order), then land
    # them in the bucket arrays in one add_many per series: the batch is
    # ~10x faster than one indexed numpy add per record and sums each
    # bucket in the same record order, so the figures are bit-identical.
    stamps: list[float] = []
    opses: list[float] = []
    by_infra: dict[str, tuple[list[float], list[float]]] = {}
    for server in loggers:
        for rec in server.by_kind("perf"):
            ops = float(rec.data.get("ops", 0.0))
            infra = str(rec.data.get("infra", "unknown"))
            stamps.append(rec.stamp)
            opses.append(ops)
            entry = by_infra.get(infra)
            if entry is None:
                entry = by_infra[infra] = ([], [])
            entry[0].append(rec.stamp)
            entry[1].append(ops)
    total = TimeBuckets(start, width, n)
    total.add_many(stamps, opses)
    per_infra: dict[str, TimeBuckets] = {}
    for infra, (its, iops) in by_infra.items():
        buckets = per_infra[infra] = TimeBuckets(start, width, n)
        buckets.add_many(its, iops)
    return total.rates(), {name: b.rates() for name, b in per_infra.items()}


def coefficient_of_variation(series: np.ndarray, skip: int = 0) -> float:
    """CV (std/mean) of a rate series — the paper's §7 "consistent"
    criterion quantified: the total should vary far less than the parts."""
    values = np.asarray(series, dtype=float)[skip:]
    values = values[np.isfinite(values)]
    if len(values) == 0:
        return float("nan")
    mean = values.mean()
    if mean == 0:
        return float("inf")
    return float(values.std() / mean)

"""Order statistics for the end-to-end benchmark.

Percentiles are nearest-rank, always travel with their sample count, and
are refused when fewer than ten samples lie beyond them (a p99 of 400
samples is the 4th-largest value: noise, not a tail). Medians and
quartiles over repeats use the stdlib definitions the driver uses.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

__all__ = ["MIN_BEYOND", "percentile", "median", "quartiles", "spread",
           "compare_metric"]

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> tuple[Optional[float], int]:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``samples``.

    Returns ``(value, n)``; ``value`` is None when fewer than
    :data:`MIN_BEYOND` samples lie strictly beyond the requested rank
    (above it for q >= 0.5, below it otherwise), so a caller can never
    print a tail it did not measure.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    n = len(samples)
    if n == 0:
        return None, 0
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    beyond = n - rank if q >= 0.5 else rank - 1
    if beyond < MIN_BEYOND:
        return None, n
    return sorted(samples)[rank - 1], n


median = statistics.median


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def compare_metric(a: Sequence[float], b: Sequence[float], better: str,
                   bound: Optional[float]) -> dict:
    """Compare runs ``a`` (parent) and ``b`` (change) of one metric on
    one workload by the choosing-metrics rule (section 8).

    Verdicts: ``regressed`` (b's median worse than a's by more than
    ``bound``), ``improved`` (at least ten pairs, b wins at least nine
    tenths of them, and the medians differ by more than a's own
    inter-quartile distance), ``unresolved`` (a's spread is wider than
    the bound and the runs overlap), else ``same``. Runs are paired in
    the order given; ties count for neither side.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower|higher, got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = median(a), median(b)
    q1, _, q3 = quartiles(a)
    iqr_a = q3 - q1
    change = (med_b - med_a) / med_a if med_a else math.inf
    worse_by = sign * change
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    all_better = max(sign * y for y in b) < min(sign * x for x in a)
    verdict = "same"
    if bound is not None and worse_by > bound:
        verdict = "regressed"
    elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
          and abs(med_b - med_a) > iqr_a):
        verdict = "improved"
    elif (bound is not None and med_a and iqr_a / abs(med_a) > bound
          and not all_better):
        verdict = "unresolved"
    return {"median_a": med_a, "median_b": med_b, "iqr_a": iqr_a,
            "change": change, "pairs": len(pairs), "wins": wins,
            "losses": losses, "verdict": verdict}

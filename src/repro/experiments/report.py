"""Rendering experiment results as the paper's tables and figures.

Terminal-friendly output: each figure becomes a data table (time series
rows exactly as the figure plots them) plus an ASCII sparkline so the
*shape* — the thing the reproduction is accountable for — is visible in
the bench logs committed to EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .sc98 import SC98Results, offset_to_clock
from .stats import shape_metrics

__all__ = [
    "sparkline",
    "format_rate",
    "render_series_table",
    "render_fig2",
    "render_fig3a",
    "render_fig3b",
    "render_headlines",
    "render_grid_criteria",
    "render_trace_summary",
    "render_live_summary",
]

_BARS = " .:-=+*#%@"


def sparkline(values: Sequence[float], log: bool = False) -> str:
    """One character per value, deeper shade = higher value."""
    vals = np.asarray(values, dtype=float)
    vals = np.where(np.isfinite(vals), vals, 0.0)
    if log:
        vals = np.log10(np.maximum(vals, 1.0))
    lo, hi = float(vals.min()), float(vals.max())
    if hi <= lo:
        return _BARS[0] * len(vals)
    idx = ((vals - lo) / (hi - lo) * (len(_BARS) - 1)).round().astype(int)
    return "".join(_BARS[i] for i in idx)


def format_rate(value: float) -> str:
    """Engineering format matching the paper's axis labels (e.g. 2.39E+09)."""
    if not math.isfinite(value):
        return "nan"
    return f"{value:.2E}"


def render_series_table(
    times: Sequence[float],
    columns: dict[str, Sequence[float]],
    every: int = 6,
    rate_format: bool = True,
) -> str:
    """A figure's data as rows: one line per ``every``-th bucket."""
    names = list(columns)
    header = "time of day | " + " | ".join(f"{n:>10}" for n in names)
    lines = [header, "-" * len(header)]
    for i in range(0, len(times), every):
        cells = []
        for name in names:
            v = float(columns[name][i])
            cells.append(f"{format_rate(v) if rate_format else f'{v:10.1f}':>10}")
        lines.append(f"{offset_to_clock(float(times[i])):>11} | " + " | ".join(cells))
    return "\n".join(lines)


def render_fig2(results: SC98Results) -> str:
    """Figure 2: total sustained performance, 5-minute averages."""
    s = results.series
    out = ["Figure 2: Sustained Application Performance (5-minute averages)"]
    out.append(f"  shape: [{sparkline(s.total_rate)}]")
    out.append(render_series_table(s.times, {"total iops": s.total_rate}))
    return "\n".join(out)


def render_fig3a(results: SC98Results, log: bool = False) -> str:
    """Figure 3a (linear) / 4a (log): per-infrastructure delivered rate."""
    s = results.series
    title = "Figure 4a (log scale)" if log else "Figure 3a"
    out = [f"{title}: Program Performance by Infrastructure Type"]
    for name in sorted(s.rate_by_infra):
        out.append(f"  {name:>9}: [{sparkline(s.rate_by_infra[name], log=log)}]"
                   f"  peak={format_rate(float(np.max(s.rate_by_infra[name])))}")
    out.append(render_series_table(s.times, dict(sorted(s.rate_by_infra.items()))))
    return "\n".join(out)


def render_fig3b(results: SC98Results, log: bool = False) -> str:
    """Figure 3b (linear) / 4b (log): host count by infrastructure."""
    s = results.series
    title = "Figure 4b (log scale)" if log else "Figure 3b"
    out = [f"{title}: Host Count by Infrastructure Type"]
    for name in sorted(s.hosts_by_infra):
        series = s.hosts_by_infra[name]
        out.append(f"  {name:>9}: [{sparkline(series, log=log)}]"
                   f"  max={float(np.max(series)):.0f}")
    out.append(render_series_table(
        s.times, dict(sorted(s.hosts_by_infra.items())), rate_format=False))
    return "\n".join(out)


def render_headlines(results: SC98Results) -> str:
    """The §4.1 quoted numbers, paper vs. this run."""
    peak_t, peak = results.peak()
    lines = [
        "Headline numbers (paper -> this run):",
        f"  peak 5-min rate      : 2.39E+09 -> {format_rate(peak)}"
        f" at {offset_to_clock(peak_t)}",
        f"  judging dip (11:00+) : 1.10E+09 -> {format_rate(results.judging_dip())}",
        f"  recovery (11:10+)    : 2.00E+09 -> {format_rate(results.recovery())}",
    ]
    return "\n".join(lines)


def render_grid_criteria(results: SC98Results) -> str:
    """§7: quantify 'consistent' — total CV vs per-infrastructure CVs —
    plus the pervasive/dependable evidence."""
    shape = shape_metrics(results)
    lines = ["Grid criteria (§7):"]
    lines.append(f"  consistent: total-rate CV = {shape.total_cv:.3f}")
    for name, cv in shape.part_cvs.items():
        lines.append(f"    {name:>9} CV = {cv:.3f}")
    infra_count = sum(
        1 for v in results.series.rate_by_infra.values()
        if float(np.nansum(v)) > 0)
    lines.append(f"  pervasive: {infra_count} infrastructures delivered cycles")
    return "\n".join(lines)


def render_trace_summary(telemetry) -> str:
    """Aggregate span statistics for a traced run: per-name counts and
    non-ok outcome tallies, plus the interesting counters. Deterministic
    (simulated-time data only), so it can ride in diffed reports."""
    tracer = telemetry.tracer
    by_name: dict[str, int] = {}
    outcomes: dict[str, int] = {}
    for span in tracer.spans:
        key = span.name.split(" ")[0]
        by_name[key] = by_name.get(key, 0) + 1
        out = span.outcome or "open"
        if out not in ("ok", "open"):
            outcomes[out] = outcomes.get(out, 0) + 1
    lines = [f"Trace summary ({len(tracer.spans)} spans):"]
    for key in sorted(by_name):
        lines.append(f"  {key:<14} {by_name[key]:>7}")
    if outcomes:
        lines.append("  non-ok outcomes:")
        for out in sorted(outcomes):
            lines.append(f"    {out:<18} {outcomes[out]:>5}")
    reliable = telemetry.metrics.counters_matching("reliable.")
    faults = telemetry.metrics.counters_matching("fault.")
    for section, values in (("reliable", reliable), ("faults", faults)):
        if values:
            lines.append(f"  {section}: " + ", ".join(
                f"{k.split('.', 1)[1]}={v}" for k, v in values.items()))
    return "\n".join(lines)


def render_live_summary(report: dict) -> str:
    """Human-readable summary of a live-plane run (`repro live`).

    Takes the :meth:`repro.live.LiveReport.to_dict` document: per-node
    supervision and telemetry accounting, chaos/recovery evidence, the
    counter-example verification tally, and the invariant verdict.
    """
    nodes = report.get("nodes", {})
    lines = [f"Live world summary ({len(nodes)} nodes, "
             f"{report.get('duration', 0):.0f}s wall):"]
    lines.append(f"  {'node':<10} {'role':<10} {'state':<8} "
                 f"{'reports':>7} {'restarts':>8}  stop")
    for name in sorted(nodes):
        node = nodes[name]
        lines.append(
            f"  {name:<10} {node.get('role', '?'):<10} "
            f"{node.get('state', '?'):<8} {node.get('reports', 0):>7} "
            f"{node.get('restarts', 0):>8}  {node.get('stop_reason') or '-'}")
    for chaos in report.get("chaos", []):
        lines.append(f"  chaos: killed {chaos['node']} "
                     f"(pid {chaos['pid']}) at t={chaos['t']:.1f}s")
    sched = [n for n in nodes.values() if n.get("role") == "scheduler"]
    if sched:
        assigned = sum(n.get("stats", {}).get("units_assigned", 0) for n in sched)
        completed = sum(n.get("stats", {}).get("units_completed", 0) for n in sched)
        requeued = sum(n.get("stats", {}).get("units_requeued", 0) for n in sched)
        reaps = sum(n.get("stats", {}).get("reaps", 0) for n in sched)
        lines.append(f"  work: {assigned} assigned, {completed} completed, "
                     f"{requeued} requeued, {reaps} reap(s)")
    examples = report.get("counter_examples", [])
    verified = sum(1 for e in examples if e.get("verified"))
    lines.append(f"  counter-examples in persistent state: {len(examples)} "
                 f"({verified} verified)")
    violations = report.get("violations", [])
    if violations:
        lines.append("  INVARIANT VIOLATIONS:")
        lines.extend(f"    - {v}" for v in violations)
    else:
        lines.append("  invariants: all hold")
    return "\n".join(lines)

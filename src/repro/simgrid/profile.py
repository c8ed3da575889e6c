"""Handler timing: wall latency per ``(component, message type)``.

The paper's dynamic benchmarking (§2) tags each program event by where
it ran and what it was, and times it. Set an :class:`EngineProfiler` as
:attr:`Telemetry.profiler <repro.core.telemetry.Telemetry.profiler>` and
every driver sharing that telemetry — ``SimDriver`` on the simulated
grid, ``NetDriver`` on real sockets — feeds
:meth:`EngineProfiler.record_handler` around each
``Component.on_message``. Unset (the default), the cost is one attribute
check per handled message.

All numbers here are *wall-clock* (they answer "where does the host CPU
go?"), so they are intentionally excluded from the deterministic
trace/metrics exports whose digests the tier-1 suite pins
(``tests/experiments/test_observe.py -k pinned``).
"""

from __future__ import annotations

__all__ = ["EngineProfiler"]


class EngineProfiler:
    """Accumulated handler timing over every run it was attached to."""

    def __init__(self) -> None:
        #: ``(component, mtype) -> [calls, total_seconds, max_seconds]``
        #: fed by the drivers around ``Component.on_message``.
        self.handlers: dict[tuple[str, str], list] = {}

    def record_handler(self, component: str, mtype: str, seconds: float) -> None:
        cell = self.handlers.get((component, mtype))
        if cell is None:
            cell = self.handlers[(component, mtype)] = [0, 0.0, 0.0]
        cell[0] += 1
        cell[1] += seconds
        if seconds > cell[2]:
            cell[2] = seconds

    def report(self) -> dict:
        """Structured profile (wall-clock values; not diff-stable)."""
        return {
            "handlers": {
                f"{comp}:{mtype}": {
                    "calls": calls,
                    "total_s": round(total, 6),
                    "mean_us": round(1e6 * total / calls, 2) if calls else 0.0,
                    "max_us": round(1e6 * mx, 2),
                }
                for (comp, mtype), (calls, total, mx)
                in sorted(self.handlers.items())
            },
        }

    def chrome_events(self, pid: int = 0) -> list[dict]:
        """The handler-latency profile as Chrome ``trace_event`` dicts,
        for a profiler lane inside the simulation's trace export
        (``export_chrome_trace(..., extra_events=...)``).

        Handlers are laid out *sequentially* by accumulated wall time —
        this lane answers "where did host CPU go", not "when did things
        happen", so its timeline is wall seconds of callback work, not
        simulated time. Each handler gets one complete ("X") event whose
        duration is its total wall time, plus a counter ("C") event with
        its call count. ``pid`` 0 picks a lane id far from the
        component pids the span exporter assigns."""
        pid = pid or 9999
        events: list[dict] = [{
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": pid,
            "args": {"name": "engine profiler (wall)"},
        }]
        cursor = 0.0
        ranked = sorted(self.handlers.items(), key=lambda kv: -kv[1][1])
        for (comp, mtype), (calls, total, mx) in ranked:
            events.append({
                "name": f"{comp}:{mtype}",
                "cat": "profile",
                "ph": "X",
                "ts": round(cursor * 1e6, 3),
                "dur": round(total * 1e6, 3),
                "pid": pid,
                "tid": pid,
                "args": {
                    "calls": calls,
                    "mean_us": round(1e6 * total / calls, 2) if calls else 0.0,
                    "max_us": round(1e6 * mx, 2),
                },
            })
            events.append({
                "name": "handler calls",
                "ph": "C",
                "ts": round(cursor * 1e6, 3),
                "pid": pid,
                "args": {f"{comp}:{mtype}": calls},
            })
            cursor += total
        return events

    def render(self, top: int = 15) -> str:
        """Human-readable profile summary."""
        lines = [f"handled messages : "
                 f"{sum(cell[0] for cell in self.handlers.values())}"]
        if self.handlers:
            lines.append("slowest handlers (by total wall time):")
            ranked = sorted(self.handlers.items(), key=lambda kv: -kv[1][1])
            for (comp, mtype), (calls, total, mx) in ranked[:top]:
                mean = 1e6 * total / calls if calls else 0.0
                lines.append(
                    f"  {comp:<20} {mtype:<16} calls={calls:<7d} "
                    f"total={total * 1e3:8.2f}ms mean={mean:7.1f}us "
                    f"max={mx * 1e6:8.1f}us")
        return "\n".join(lines)

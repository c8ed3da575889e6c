"""Flight recorder: a crash-surviving ring of recent spans and logs.

The telemetry shipper loses whatever happened after the last
``COL_REPORT`` when a node dies — exactly the seconds that explain the
death. The flight recorder closes that gap: every closed span (and log
line) is appended to a per-incarnation JSONL spool, flushed per record
like the job journal, with ring semantics via two-segment rotation —
once ``capacity`` records are written the segment rotates to ``*.1`` and
a fresh one starts, so disk holds at most ~2x capacity records and the
most recent ``capacity`` are always recoverable.

On a graceful SIGTERM the drain hook :meth:`FlightRecorder.seal` writes
the still-open spans plus a footer naming the stop reason. On SIGKILL
nothing runs — and nothing needs to: the spool already holds the
history. The supervisor reaps the dump with :func:`load_flight` and
feeds it to the collector, which dedups spans by id (tracer id blocks
make span ids globally unique per incarnation).
"""

from __future__ import annotations

import os
from typing import Optional

from ..core.telemetry import SpanCursor, Tracer
from .recordlog import RecordLog, read_records

__all__ = ["FlightRecorder", "load_flight", "flight_path"]

DEFAULT_FLIGHT_CAPACITY = 2048
FLIGHT_SUFFIX = ".flight.jsonl"


def flight_path(data_dir: str, node: str, incarnation: int) -> str:
    """Where node ``name`` incarnation ``n`` spools its flight records."""
    return os.path.join(data_dir, f"{node}.{incarnation}{FLIGHT_SUFFIX}")


class FlightRecorder:
    """Incrementally spool closed spans/logs; survive SIGKILL by design.

    ``telemetry`` is the node's :class:`~repro.core.telemetry.Telemetry`;
    :meth:`tick` (called from the driver's reactor hook) takes every span
    closed since the last tick. Open spans wait in the cursor (finish
    mutates in place) and are force-dumped by :meth:`seal`.
    """

    def __init__(self, path: str, telemetry=None, node: str = "",
                 incarnation: int = 0, epoch: float = 0.0,
                 capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        self.path = path
        self.telemetry = telemetry
        self.node = node
        self.incarnation = incarnation
        self.epoch = epoch
        self.capacity = max(1, int(capacity))
        self.records = 0          # total records ever spooled
        self.rotations = 0
        self._written = 0         # records in the current segment
        # Untelemetered, the cursor walks a tracer that never has spans.
        self._spans = SpanCursor(telemetry.tracer if telemetry is not None
                                 else Tracer())
        self._closed = False
        if os.path.exists(path):
            os.remove(path)  # a spool is one incarnation's: never appended to
        # The job journal's appender, flushed per record: the whole point
        # is that the bytes are on disk when the SIGKILL lands.
        self._log = RecordLog(path)
        self._header()

    # -- spool ----------------------------------------------------------------
    def _header(self) -> None:
        self._log.append({"kind": "hello", "node": self.node,
                          "incarnation": self.incarnation,
                          "epoch": self.epoch, "capacity": self.capacity})

    def _record(self, kind: str, payload: dict) -> None:
        if self._closed:
            return
        if self._written >= self.capacity:
            # Two-segment ring: the full segment becomes ``*.1`` and the
            # lazily reopened log starts a fresh one.
            self._log.close()
            os.replace(self.path, self.path + ".1")
            self._written = 0
            self.rotations += 1
            self._header()
        self._log.append({"kind": kind, **payload})
        self._written += 1
        self.records += 1

    # -- driver hooks ---------------------------------------------------------
    def observe_log(self, t: float, component: str, level: str,
                    text: str) -> None:
        self._record("log", {"t": t, "component": component,
                             "level": level, "text": text})

    @property
    def cursor(self) -> int:
        """Absolute index of the first span not yet spooled (trim bound)."""
        return self._spans.position

    def tick(self) -> int:
        """Spool every span closed since the last tick; returns count."""
        taken = self._spans.take()
        for span in taken:
            self._record("span", span.to_dict())
        return len(taken)

    def seal(self, reason: str = "") -> None:
        """Graceful-exit path: dump open spans and a footer, then close."""
        if self._closed:
            return
        for span in self._spans.take(final=True):
            self._record("span", span.to_dict())
        self._log.append({"kind": "seal", "reason": reason,
                          "records": self.records})
        self.close()

    def close(self) -> None:
        self._closed = True
        self._log.close()


def load_flight(path: str) -> Optional[dict]:
    """Load a flight spool (current segment + rotated predecessor).

    Returns ``{"node", "incarnation", "epoch", "spans", "logs",
    "sealed", "reason", "skipped"}`` holding the most recent
    ``capacity`` records (``skipped`` counts damaged lines, as
    ``journal_skipped`` does for the journal), or ``None`` when no
    readable spool exists at ``path``.
    """
    rotated, rotated_skipped = read_records(path + ".1")
    current, skipped = read_records(path)
    records = rotated + current
    header = next((r for r in records if r.get("kind") == "hello"), None)
    if header is None:
        return None
    try:
        capacity = int(header.get("capacity", DEFAULT_FLIGHT_CAPACITY))
        incarnation = int(header.get("incarnation", 0))
        epoch = float(header.get("epoch", 0.0))
    except (TypeError, ValueError, OverflowError):
        return None  # a header that parses but lies is no header
    spans = [r for r in records if r.get("kind") == "span"]
    logs = [r for r in records if r.get("kind") == "log"]
    seal = next((r for r in reversed(records) if r.get("kind") == "seal"),
                None)
    keep = spans[-capacity:]
    for record in keep:
        record.pop("kind", None)
    for record in logs:
        record.pop("kind", None)
    return {
        "node": header.get("node", ""),
        "incarnation": incarnation,
        "epoch": epoch,
        "capacity": capacity,
        "spans": keep,
        "logs": logs[-capacity:],
        "sealed": seal is not None,
        "reason": (seal or {}).get("reason", ""),
        "skipped": rotated_skipped + skipped,
    }

"""Flight recorder: a crash-surviving spool of one incarnation's spans and logs.

Every closed span and every log line of a live node is appended to a
per-incarnation JSONL spool, flushed like the job journal: a log line as
it is written, the spans a tick takes with one write.
The spool is the only carrier of a node's spans and logs: it keeps the
whole incarnation, so a life's trace is complete whether the process
drained or was SIGKILLed mid-flight.

On a graceful SIGTERM the drain hook :meth:`FlightRecorder.seal` writes
the still-open spans plus a footer naming the stop reason. On SIGKILL
nothing runs — and nothing needs to: the spool already holds the
history. The supervisor reaps every incarnation's spool once with
:func:`load_flight` and feeds it to the collector.
"""

from __future__ import annotations

import os
from typing import Optional

from ..core.telemetry import SpanCursor, Tracer
from .recordlog import RecordLog, read_records

__all__ = ["FlightRecorder", "load_flight", "flight_path"]

FLIGHT_SUFFIX = ".flight.jsonl"


def flight_path(data_dir: str, node: str, incarnation: int) -> str:
    """Where node ``name`` incarnation ``n`` spools its flight records."""
    return os.path.join(data_dir, f"{node}.{incarnation}{FLIGHT_SUFFIX}")


class FlightRecorder:
    """Incrementally spool closed spans/logs; survive SIGKILL by design.

    ``telemetry`` is the node's :class:`~repro.core.telemetry.Telemetry`;
    :meth:`tick` (called from the driver's reactor hook) takes every span
    closed since the last tick. Open spans wait in the cursor (finish
    mutates in place) and are force-dumped by :meth:`seal`. ``epoch`` is
    the wall clock at the node's t=0: the header carries it, and the
    collector places the spool's timestamps on its timeline by it.
    """

    def __init__(self, path: str, telemetry=None, node: str = "",
                 incarnation: int = 0, epoch: float = 0.0) -> None:
        self.path = path
        self.telemetry = telemetry
        self.node = node
        self.incarnation = incarnation
        self.epoch = epoch
        self.records = 0          # total records ever spooled
        # Untelemetered, the cursor walks a tracer that never has spans.
        self._spans = SpanCursor(telemetry.tracer if telemetry is not None
                                 else Tracer())
        self._closed = False
        if os.path.exists(path):
            os.remove(path)  # a spool is one incarnation's: never appended to
        # The job journal's appender, flushed per record: the whole point
        # is that the bytes are on disk when the SIGKILL lands.
        self._log = RecordLog(path)
        self._log.append({"kind": "hello", "node": node,
                          "incarnation": incarnation, "epoch": epoch})

    def _record(self, kind: str, payload: dict) -> None:
        if self._closed:
            return
        self._log.append({"kind": kind, **payload})
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

    def _span_records(self, final: bool = False) -> list[dict]:
        taken = self._spans.take(final=final)
        self.records += len(taken)
        return [{"kind": "span", **span.to_dict()} for span in taken]

    def tick(self) -> int:
        """Spool every span closed since the last tick with one flushed
        write; returns count."""
        if self._closed:
            return len(self._spans.take())
        spans = self._span_records()
        self._log.append_many(spans)
        return len(spans)

    def seal(self, reason: str = "") -> None:
        """Graceful-exit path: dump open spans and a footer with one
        flushed write, then close."""
        if self._closed:
            return
        spans = self._span_records(final=True)
        self._log.append_many(spans + [{"kind": "seal", "reason": reason,
                                        "records": self.records}])
        self.close()

    def close(self) -> None:
        self._closed = True
        self._log.close()


def load_flight(path: str) -> Optional[dict]:
    """Load one incarnation's flight spool.

    Returns ``{"node", "incarnation", "epoch", "spans", "logs",
    "sealed", "reason", "skipped"}`` holding every record the spool
    kept (``skipped`` counts damaged lines, as ``journal_skipped`` does
    for the journal), or ``None`` when no readable spool exists at
    ``path``.
    """
    records, skipped = read_records(path)
    header = seal = None
    spans: list[dict] = []
    logs: list[dict] = []
    for record in records:
        kind = record.pop("kind", None)
        if kind == "span":
            spans.append(record)
        elif kind == "log":
            logs.append(record)
        elif kind == "hello" and header is None:
            header = record
        elif kind == "seal":
            seal = record
    if header is None:
        return None
    try:
        incarnation = int(header.get("incarnation", 0))
        epoch = float(header.get("epoch", 0.0))
    except (TypeError, ValueError, OverflowError):
        return None  # a header that parses but lies is no header
    return {
        "node": header.get("node", ""),
        "incarnation": incarnation,
        "epoch": epoch,
        "spans": spans,
        "logs": logs,
        "sealed": seal is not None,
        "reason": (seal or {}).get("reason", ""),
        "skipped": skipped,
    }

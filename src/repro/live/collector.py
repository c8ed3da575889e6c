"""The supervisor-side telemetry collector for live worlds.

Every live node reports to the supervisor over the same lingua franca
the application speaks, to a :class:`Collector` that is a
:class:`~repro.core.component.Component` the harness runs under
:class:`~repro.core.netdriver.NetDriver` like any other endpoint:

* ``COL_HELLO`` — once per process incarnation: node name, pid and
  incarnation number;
* ``COL_REPORT`` — the heartbeat, periodic (and once more during
  graceful drain): a sequence number, the node's full metrics snapshot,
  role-specific stats, driver counters, and on the last one the stop
  reason.

A node's spans and log lines do not travel here: each incarnation
spools them to its flight recorder (:mod:`repro.obs.flight`), and the
supervisor hands every reaped spool to :meth:`Collector.ingest_flight`
once. The :class:`Collector` merges both into the same artifact formats
the simulation already emits — a metrics snapshot
(:func:`merge_snapshots` shape), a :class:`~repro.core.telemetry.Tracer`
whose spans live on one common timeline (so
:func:`~repro.core.telemetry.export_chrome_trace` works unchanged), and
a time-ordered log.

Report interarrival gaps are fed to the forecasting machinery per node —
:meth:`silent_nodes` is the paper's forecast-driven liveness test (§2.2)
applied to the deployment plane: a node is suspect when its silence
exceeds the *forecast* gap by a safety multiplier, not a hardcoded
constant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..core.component import Component, Effect
from ..core.forecasting.benchmarking import ForecastRegistry, event_tag
from ..core.linguafranca.messages import MALFORMED, Message, wire_stamp
from ..core.telemetry import Span, Tracer, merge_snapshots

__all__ = ["COL_HELLO", "COL_REPORT", "Collector", "NodeRecord"]

COL_HELLO = "COL_HELLO"
COL_REPORT = "COL_REPORT"


@dataclass
class NodeRecord:
    """Everything the collector knows about one live node."""

    name: str
    contact: str = ""
    pid: int = 0
    incarnation: int = 0
    hellos: int = 0
    reports: int = 0
    #: Highest sequence number seen per incarnation: dedup (reconnect
    #: resends) is per-life, since every restart resets the counter.
    last_seqs: dict = field(default_factory=dict)
    #: Flight spools ingested, and the spans they brought.
    flight_dumps: int = 0
    flight_spans: int = 0
    #: Collector-clock time of the last report (for liveness).
    last_report: Optional[float] = None
    #: Latest full metrics snapshot (cumulative on the node side).
    metrics: dict = field(default_factory=dict)
    #: Last snapshot seen per incarnation: a restart resets the node's
    #: counters, so earlier lives must be merged in, not overwritten —
    #: their sends were already counted by every peer that received them.
    metrics_history: dict = field(default_factory=dict)
    #: Spans from every ingested spool, on the collector timeline.
    spans: list[Span] = field(default_factory=list)
    #: Log lines from every ingested spool: dicts ``{"t", "node",
    #: "component", "level", "text"}`` with ``t`` on the collector
    #: timeline.
    logs: list[dict] = field(default_factory=list)
    #: Role-specific stats from the latest report.
    stats: dict = field(default_factory=dict)
    stop_reason: Optional[str] = None
    final_reports: int = 0
    duplicate_reports: int = 0


class Collector(Component):
    """Merges per-node telemetry shipments into world-level artifacts."""

    def __init__(self) -> None:
        super().__init__("collector")
        self.nodes: dict[str, NodeRecord] = {}
        self.forecasts = ForecastRegistry()
        self.bad_messages = 0
        #: Replies to the harness's requests by ``req_id``, None while
        #: awaited; a reply whose key is gone (no one waits) is dropped.
        self.replies: dict[int, Optional[Message]] = {}

    def bind_runtime(self, runtime) -> None:
        super().bind_runtime(runtime)
        #: Wall time at the driver clock's zero: the merged timeline's zero.
        self.epoch = time.time() - runtime.now()

    def now(self) -> float:
        """Seconds on the driver's clock (the merged timeline)."""
        return self.runtime.now()

    # -- ingestion ------------------------------------------------------------
    def _record(self, name: str) -> NodeRecord:
        rec = self.nodes.get(name)
        if rec is None:
            rec = self.nodes[name] = NodeRecord(name=name)
        return rec

    def on_message(self, message: Message, now: float) -> list[Effect]:
        body = message.body
        if message.reply_to is not None:
            if message.reply_to in self.replies:
                self.replies[message.reply_to] = message
            return []
        # Parse every field before the record moves (§2.3): a heartbeat
        # that does not parse is counted and leaves no trace.
        try:
            name = body["node"]
            if type(name) is not str or not name:
                raise TypeError("node must be a non-empty string")
            if message.mtype == COL_HELLO:
                pid = int(body.get("pid", 0))
                incarnation = int(body.get("incarnation", 0))
            elif message.mtype == COL_REPORT:
                known = self.nodes.get(name)
                seq = int(body.get("seq", 0))
                incarnation = int(body.get(
                    "incarnation", known.incarnation if known else 0))
            else:
                raise LookupError(f"unknown message type {message.mtype}")
        except MALFORMED:
            self.bad_messages += 1
            return []
        rec = self._record(name)
        if message.mtype == COL_HELLO:
            rec.hellos += 1
            rec.contact = message.sender
            rec.pid = pid
            rec.incarnation = incarnation
            rec.stop_reason = None
        else:
            self._ingest_report(rec, seq, incarnation, body, now)
        return []

    def _ingest_report(self, rec: NodeRecord, seq: int, incarnation: int,
                       body: dict, now: float) -> None:
        # Dedup is per-incarnation: restarts reset the node-side counter,
        # and a dead life's straggler (still in flight while the
        # successor says hello) must not be mistaken for a resend.
        if seq <= rec.last_seqs.get(incarnation, -1):
            rec.duplicate_reports += 1
            return
        rec.last_seqs[incarnation] = seq
        rec.reports += 1
        if rec.last_report is not None:
            # Forecast-driven liveness: learn this node's shipping cadence.
            self.forecasts.record(event_tag(rec.name, COL_REPORT),
                                  now - rec.last_report)
        rec.last_report = now
        metrics = body.get("metrics")
        if isinstance(metrics, dict):
            rec.metrics = metrics
            rec.metrics_history[incarnation] = metrics
        stats = body.get("stats")
        if isinstance(stats, dict):
            rec.stats = stats
        if body.get("final"):
            rec.final_reports += 1
            rec.stop_reason = str(body.get("stop_reason", "") or "") or None

    def ingest_flight(self, dump: dict) -> int:
        """Merge one incarnation's flight-recorder spool (the
        :func:`~repro.obs.flight.load_flight` shape), the only source of
        a node's spans and log lines. Timestamps are relative to the
        epoch in the spool's header, so a life lands on the collector
        timeline by its own clock whenever it is recovered. The
        supervisor offers each spool once. Returns the spans added.

        Nothing moves until the whole spool is parsed: one without a
        node name or a finite epoch is refused whole, a span or log line
        that does not parse is skipped, and each counts in
        ``bad_messages``."""
        name = str(dump.get("node", "") or "")
        try:
            shift = wire_stamp(dump.get("epoch", 0.0)) - self.epoch
        except MALFORMED:
            shift = None
        if not name or shift is None:
            self.bad_messages += 1
            return 0
        spans = []
        for d in dump.get("spans", ()):
            try:
                span = Span.from_dict(d)
            except (KeyError, TypeError, ValueError):
                self.bad_messages += 1
                continue
            span.start += shift
            if span.end is not None:
                span.end += shift
            spans.append(span)
        logs = []
        for line in dump.get("logs", ()):
            try:
                t = wire_stamp(line.get("t", 0.0) if isinstance(line, dict)
                               else None)
            except MALFORMED:
                self.bad_messages += 1
                continue
            logs.append({
                "t": t + shift,
                "node": name,
                "component": str(line.get("component", name)),
                "level": str(line.get("level", "info")),
                "text": str(line.get("text", "")),
            })
        rec = self._record(name)
        rec.spans.extend(spans)
        rec.logs.extend(logs)
        rec.flight_dumps += 1
        rec.flight_spans += len(spans)
        return len(spans)

    # -- liveness ------------------------------------------------------------
    def silent_nodes(
        self,
        multiplier: float = 6.0,
        default: float = 5.0,
        floor: float = 1.0,
        ceiling: float = 30.0,
    ) -> list[str]:
        """Nodes whose silence exceeds the forecast report gap.

        The deadline per node is ``forecast(gap) * multiplier`` clamped
        to ``[floor, ceiling]`` (``default`` before any history) — the
        same dynamic time-out discovery the services use, applied to the
        deployment plane. Nodes that already shipped a final report are
        not suspect: they stopped on purpose.
        """
        now = self.now()
        suspects = []
        for name in sorted(self.nodes):
            rec = self.nodes[name]
            if rec.last_report is None or rec.final_reports:
                continue
            deadline = self.forecasts.timeout(
                event_tag(name, COL_REPORT), multiplier=multiplier,
                default=default, floor=floor, ceiling=ceiling)
            if now - rec.last_report > deadline:
                suspects.append(name)
        return suspects

    # -- merged artifacts -----------------------------------------------------
    def merged_metrics(self) -> dict:
        """Every incarnation of every node merged into one snapshot
        (:func:`merge_snapshots` semantics: counters add, so a restarted
        node contributes each of its lives exactly once)."""
        snapshots = []
        for name in sorted(self.nodes):
            rec = self.nodes[name]
            history = rec.metrics_history or {0: rec.metrics}
            snapshots.extend(history[i] for i in sorted(history))
        return merge_snapshots(snapshots)

    def site_utilisation(self, topology, elapsed: float) -> dict:
        """Per-site delivered-vs-available ops (§2.2's utilisation
        meters) after ``elapsed`` seconds: delivered is each client's
        latest-incarnation ops counter (a restart resets it — the meter
        dips honestly when a site loses a machine), available is clients
        x topology speed x elapsed."""
        sites: dict[str, dict] = {}
        for spec in topology.by_role("client"):
            rec = self.nodes.get(spec.name)
            row = sites.setdefault(spec.options["site"], {
                "clients": 0, "delivered_ops": 0.0, "available_ops": 0.0})
            row["clients"] += 1
            row["available_ops"] += topology.speed * elapsed
            row["delivered_ops"] += float(
                rec.stats.get("total_ops", 0.0) if rec else 0.0)
        for row in sites.values():
            row["utilisation"] = (row["delivered_ops"] / row["available_ops"]
                                  if row["available_ops"] else 0.0)
        return sites

    def merged_tracer(self) -> Tracer:
        """One tracer holding every node's spans on the common timeline
        (start-time ordered), ready for the existing exporters."""
        tracer = Tracer(enabled=False)
        spans: list[Span] = []
        for name in sorted(self.nodes):
            spans.extend(self.nodes[name].spans)
        spans.sort(key=lambda s: (s.start, s.trace_id, s.span_id))
        tracer.spans = spans
        return tracer

    def merged_logs(self) -> list[dict]:
        lines: list[dict] = []
        for name in sorted(self.nodes):
            lines.extend(self.nodes[name].logs)
        lines.sort(key=lambda d: d["t"])
        return lines

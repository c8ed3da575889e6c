"""Observability plane: metrics registry + causal tracing.

The paper could explain the SC98 run only because EveryWare's logging
servers and dynamic-benchmark tags ``(address, message type)`` recorded
what every infrastructure was doing (§2.2, §3.1.3). This module is that
monitoring plane made first-class for the reproduction:

* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms that components and drivers register against, replacing the
  ad-hoc ``self.appended``-style attributes with one scrapeable surface
  whose :meth:`~MetricsRegistry.snapshot` is JSON- and diff-stable;
* :class:`Tracer` — causal spans carried through lingua-franca message
  headers and propagated by the drivers through effect emission, timer
  callbacks, retransmissions, and fault-injected drops, so every
  reply/retry/requeue links back to its root cause. Span ids come from a
  per-tracer counter and timestamps are *simulated* time, so same-seed
  runs export byte-identical traces;
* exporters — Chrome ``trace_event`` JSON (loadable in
  ``chrome://tracing`` / Perfetto), a text timeline, and a metrics
  snapshot.

A :class:`Telemetry` object bundles one registry and one tracer; a world
(scenario, chaos run, SC98 replay) creates a single instance and threads
it through its drivers, network, and fault plan. Tracing is off by
default — when disabled, the hot paths reduce to a single attribute
check.

Span outcomes form a small vocabulary shared with the experiment layer:
``ok``, ``error``, ``timeout``, ``retransmit``, ``gave-up``,
``dropped``, ``dropped-by-fault``, ``fault``, ``requeue``.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, NamedTuple, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceContext",
    "Span",
    "Tracer",
    "SpanCursor",
    "Telemetry",
    "export_chrome_trace",
    "merge_snapshots",
    "render_timeline",
]


class TraceContext(NamedTuple):
    """What travels in a message header: ``(trace_id, parent span_id)``.

    A plain 2-tuple on the wire (the ``"t"`` field of the lingua-franca
    record); the receiving driver starts its handler span as a child of
    ``span_id`` within ``trace_id``.
    """

    trace_id: int
    span_id: int


# -- metrics -----------------------------------------------------------------


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value (queue depth, pool size, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Default histogram bucket upper bounds (seconds-ish scales; the last
#: implicit bucket is +inf).
DEFAULT_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0)


class Histogram:
    """Fixed-bucket histogram: ``bounds`` are upper edges, the final
    overflow bucket is implicit."""

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def _metric_key(name: str, labels: dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Labels become part of the metric key (``name{k=v,...}``), so
    components of the same kind can keep per-instance series while
    sharing one registry per world.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        key = _metric_key(name, labels)
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter(key)
        return c

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _metric_key(name, labels)
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge(key)
        return g

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = _metric_key(name, labels)
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(key, bounds)
        return h

    def counters_matching(self, prefix: str) -> dict[str, int]:
        """All counter values whose key starts with ``prefix`` (scraping
        helper for reports)."""
        return {k: c.value for k, c in sorted(self._counters.items())
                if k.startswith(prefix)}

    def snapshot(self) -> dict:
        """A JSON- and diff-stable dump of every registered metric."""
        return {
            "counters": {k: self._counters[k].value
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "count": h.count,
                    "total": round(h.total, 9),
                }
                for k, h in sorted(self._histograms.items())
            },
        }


# -- tracing -----------------------------------------------------------------


class Span:
    """One traced operation in simulated time."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "component",
                 "mtype", "start", "end", "outcome", "args")

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        component: str,
        start: float,
        mtype: str = "",
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.component = component
        self.mtype = mtype
        self.start = start
        self.end: Optional[float] = None
        self.outcome: Optional[str] = None
        self.args: dict[str, Any] = {}

    @property
    def ctx(self) -> TraceContext:
        """The context children of this span inherit."""
        return TraceContext(self.trace_id, self.span_id)

    def to_dict(self) -> dict:
        d = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "component": self.component,
            "start": round(self.start, 9),
            "end": None if self.end is None else round(self.end, 9),
            "outcome": self.outcome,
        }
        if self.mtype:
            d["mtype"] = self.mtype
        if self.args:
            d["args"] = self.args
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        """Rebuild a span from its :meth:`to_dict` form (the shape live
        nodes ship to the supervisor's collector)."""
        span = cls(
            trace_id=int(d["trace_id"]),
            span_id=int(d["span_id"]),
            parent_id=None if d.get("parent_id") is None else int(d["parent_id"]),
            name=str(d["name"]),
            component=str(d.get("component", "")),
            start=float(d["start"]),
            mtype=str(d.get("mtype", "")),
        )
        span.end = None if d.get("end") is None else float(d["end"])
        span.outcome = d.get("outcome")
        args = d.get("args")
        if isinstance(args, dict):
            span.args.update(args)
        return span

    def __repr__(self) -> str:
        return (f"<Span {self.span_id} {self.name!r} trace={self.trace_id} "
                f"parent={self.parent_id} outcome={self.outcome}>")


class Tracer:
    """Deterministic span recorder.

    ``enabled`` gates every hot-path hook: drivers check it once per
    message/timer/send and skip span construction entirely when off.
    ``current`` is the ambient span while a component handler executes —
    the simulation is single-threaded, so one slot suffices; effects
    emitted by the handler (sends, timers, requeues) parent to it.
    """

    def __init__(self, enabled: bool = False, id_base: int = 0) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.current: Optional[Span] = None
        #: Spans discarded from the front of ``spans`` by :meth:`trim`.
        #: Consumers that walk the list with a cursor must treat their
        #: cursor as ``dropped + list position``.
        self.dropped = 0
        #: Id offset for distributed worlds: trace contexts travel between
        #: processes in message headers, so each live node gets a disjoint
        #: id block (``node_index * block``) and merged traces stay
        #: collision-free. Zero for single-process worlds.
        self.id_base = int(id_base)
        self._next_trace = self.id_base
        self._next_span = self.id_base

    # -- span construction -------------------------------------------------
    def begin(
        self,
        name: str,
        component: str = "",
        parent: Optional[tuple[int, int]] = None,
        start: float = 0.0,
        mtype: str = "",
    ) -> Span:
        """Open a span. With no ``parent`` context a fresh trace starts."""
        self._next_span += 1
        if parent is None:
            self._next_trace += 1
            trace_id, parent_id = self._next_trace, None
        else:
            trace_id, parent_id = int(parent[0]), int(parent[1])
        span = Span(trace_id, self._next_span, parent_id, name, component,
                    start, mtype)
        self.spans.append(span)
        return span

    def finish(self, span: Span, end: float, outcome: str = "ok") -> Span:
        span.end = end
        span.outcome = outcome
        return span

    def instant(
        self,
        name: str,
        t: float,
        component: str = "",
        parent: Optional[tuple[int, int]] = None,
        outcome: str = "ok",
        mtype: str = "",
        args: Optional[dict] = None,
    ) -> Span:
        """A zero-duration annotation span.

        Constructed inline rather than via :meth:`begin` — instants sit
        on the control plane's submit hot path and the extra call layer
        is measurable there.
        """
        self._next_span += 1
        if parent is None:
            self._next_trace += 1
            trace_id, parent_id = self._next_trace, None
        else:
            trace_id, parent_id = int(parent[0]), int(parent[1])
        span = Span(trace_id, self._next_span, parent_id, name, component,
                    t, mtype)
        span.end = t
        span.outcome = outcome
        if args:
            span.args.update(args)
        self.spans.append(span)
        return span

    def current_ctx(self) -> Optional[TraceContext]:
        return self.current.ctx if self.current is not None else None

    def trim(self, upto: int) -> int:
        """Discard spans every cursor-holder has already consumed.

        ``upto`` is an *absolute* span index (``dropped`` + position in
        ``spans``); spans before it leave memory. Long-lived traced
        nodes call this after the shipper/flight recorder have taken a
        span so the list — and with it gen-2 GC pressure — stays
        bounded; simulated runs never trim and keep the full record for
        export. Returns the number of spans dropped.
        """
        cut = min(upto - self.dropped, len(self.spans))
        if cut <= 0:
            return 0
        del self.spans[:cut]
        self.dropped += cut
        return cut

    # -- queries (tests, chain validation, reports) -------------------------
    def by_span_id(self) -> dict[int, Span]:
        return {s.span_id: s for s in self.spans}

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def with_outcome(self, outcome: str) -> list[Span]:
        return [s for s in self.spans if s.outcome == outcome]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans
                if s.parent_id == span.span_id and s.trace_id == span.trace_id]

    def ancestry(self, span: Span) -> Iterator[Span]:
        """The span followed by its parents up to the trace root."""
        index = self.by_span_id()
        seen: set[int] = set()
        cur: Optional[Span] = span
        while cur is not None and cur.span_id not in seen:
            seen.add(cur.span_id)
            yield cur
            cur = index.get(cur.parent_id) if cur.parent_id is not None else None

    def to_dicts(self) -> list[dict]:
        return [s.to_dict() for s in self.spans]


class SpanCursor:
    """One consumer's place in a tracer's span list (the telemetry
    shipper and the flight recorder each hold one): every span is taken
    exactly once, and only once it has closed. ``position`` is the
    absolute index (``dropped`` + list position) of the first span not
    yet considered — the holder's bound for :meth:`Tracer.trim`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.position = 0
        self._open: list[Span] = []  # seen, still open at the last take

    def take(self, final: bool = False) -> list[Span]:
        """Spans closed since the last take; with ``final`` (drain/seal)
        the still-open ones too, as they stand."""
        tracer = self.tracer
        fresh = tracer.spans[max(self.position - tracer.dropped, 0):]
        self.position = tracer.dropped + len(tracer.spans)
        candidates = self._open + fresh
        # Open spans wait: `finish` mutates in place, so a span taken
        # early would be frozen open in the merged trace.
        self._open = [] if final else [s for s in candidates if s.end is None]
        return [s for s in candidates if final or s.end is not None]


class Telemetry:
    """One world's observability handle: metrics + tracer."""

    def __init__(self, trace: bool = False, id_base: int = 0) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(enabled=trace, id_base=id_base)

    def event(
        self,
        name: str,
        now: float,
        component: str = "",
        outcome: str = "ok",
        **args: Any,
    ) -> Optional[Span]:
        """Component-side convenience: an instant span under the ambient
        handler span. No-op (returns None) when tracing is disabled."""
        tracer = self.tracer
        if not tracer.enabled:
            return None
        return tracer.instant(name, now, component=component,
                              parent=tracer.current_ctx(), outcome=outcome,
                              args=args or None)

    def snapshot(self) -> dict:
        return self.metrics.snapshot()


# -- merging (live plane) ------------------------------------------------------


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Merge per-node metrics snapshots into one snapshot-shaped dict.

    Counters and histogram buckets add; gauges are last-write-wins in
    list order (the caller orders nodes deterministically). The result
    has exactly the :meth:`MetricsRegistry.snapshot` shape, so the
    existing exporters and report scrapers work on merged live worlds
    unchanged.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for snap in snapshots:
        if not isinstance(snap, dict):
            continue
        for key, value in snap.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + int(value)
        for key, value in snap.get("gauges", {}).items():
            gauges[key] = float(value)
        for key, h in snap.get("histograms", {}).items():
            merged = histograms.get(key)
            if merged is None or merged["bounds"] != list(h["bounds"]):
                # First sighting (or incompatible bounds: keep the newest).
                histograms[key] = {
                    "bounds": list(h["bounds"]),
                    "counts": list(h["counts"]),
                    "count": int(h["count"]),
                    "total": float(h["total"]),
                }
                continue
            merged["counts"] = [a + b for a, b in zip(merged["counts"], h["counts"])]
            merged["count"] += int(h["count"])
            merged["total"] = round(merged["total"] + float(h["total"]), 9)
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {k: gauges[k] for k in sorted(gauges)},
        "histograms": {k: histograms[k] for k in sorted(histograms)},
    }


# -- exporters ---------------------------------------------------------------


def export_chrome_trace(telemetry: "Telemetry | Tracer",
                        extra_events: "list[dict] | None" = None) -> dict:
    """Spans as Chrome ``trace_event`` JSON (``chrome://tracing`` and
    Perfetto both load it).

    Every event is a complete ("X") event with the keys the format
    requires — ``name``, ``ph``, ``ts`` (microseconds of *simulated*
    time), ``pid`` — plus ``tid``, ``dur``, and span linkage in
    ``args``. Components map to pids in first-seen order (deterministic
    under a fixed seed) with ``process_name`` metadata events.

    ``extra_events`` are appended verbatim — pre-built trace events from
    another producer (e.g. the engine profiler's per-handler latency
    lane, :meth:`repro.simgrid.profile.EngineProfiler.chrome_events`)
    that should land in the same export.
    """
    tracer = telemetry.tracer if isinstance(telemetry, Telemetry) else telemetry
    pids: dict[str, int] = {}
    events: list[dict] = []
    for span in tracer.spans:
        component = span.component or "?"
        pid = pids.get(component)
        if pid is None:
            pid = pids[component] = len(pids) + 1
            events.append({
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": pid,
                "args": {"name": component},
            })
        end = span.end if span.end is not None else span.start
        args: dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "outcome": span.outcome or "open",
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.mtype:
            args["mtype"] = span.mtype
        if span.args:
            args.update(span.args)
        events.append({
            "name": span.name,
            "cat": span.outcome or "span",
            "ph": "X",
            "ts": round(span.start * 1e6, 3),
            "dur": round((end - span.start) * 1e6, 3),
            "pid": pid,
            "tid": pid,
            "args": args,
        })
    if extra_events:
        events.extend(extra_events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_timeline(telemetry: "Telemetry | Tracer", limit: int = 0) -> str:
    """Spans as a human-readable text timeline (one line per span)."""
    tracer = telemetry.tracer if isinstance(telemetry, Telemetry) else telemetry
    spans = sorted(tracer.spans, key=lambda s: (s.start, s.span_id))
    if limit:
        spans = spans[:limit]
    lines = []
    for s in spans:
        dur = "" if s.end is None or s.end == s.start else f" +{s.end - s.start:.3f}s"
        parent = "root" if s.parent_id is None else f"<{s.parent_id}"
        lines.append(
            f"[{s.start:12.3f}] t{s.trace_id:<5d} s{s.span_id:<6d} {parent:<8} "
            f"{s.component:<16} {s.name:<28} {s.outcome or 'open'}{dur}")
    return "\n".join(lines)


def write_trace_json(telemetry: "Telemetry | Tracer", path: str,
                     extra_events: "list[dict] | None" = None) -> str:
    """Write the Chrome trace to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(export_chrome_trace(telemetry, extra_events=extra_events),
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def write_metrics_json(telemetry: Telemetry, path: str) -> str:
    """Write the metrics snapshot to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(telemetry.snapshot(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path

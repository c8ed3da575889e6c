"""Walk one job's causal span chain out of a merged trace.

``repro serve`` writes every span the collector merged from the nodes'
flight spools (epoch-shifted onto one wall-clock timeline) to
``spans.json``. A job submitted over POST /jobs roots a trace there:
the gateway's ingress span mints the TraceContext, the WorkQueue stamps
it into the journal record and the outgoing work unit, and every
downstream actor — scheduler assignment, each client incarnation's work
slices, requeues after a kill, final completion — parents its spans on
that context. ``repro trace --job <id> --from <dir>`` loads the file,
finds the job's trace id, and renders the chain chronologically with
per-incarnation provenance derived from the span-id block layout.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Optional

__all__ = [
    "ID_BLOCK",
    "MAX_INCARNATIONS",
    "span_origin",
    "load_spans",
    "job_trace",
    "render_job_trace",
]

#: Tracer id block per (node index, incarnation) on the live plane —
#: the single source of truth; ``live.node`` imports these.
ID_BLOCK = 1_000_000
#: Incarnations per node index inside the id space.
MAX_INCARNATIONS = 64

SPANS_FILENAME = "spans.json"


def span_origin(span_id: int) -> tuple[int, int]:
    """Map a live-plane span id back to (node_index, incarnation).

    Inverse of the ``run_node`` id_base formula
    ``((idx + 1) * MAX_INCARNATIONS + incarnation) * ID_BLOCK``.
    Returns ``(-1, -1)`` for ids outside any live block (simulated runs
    use id_base 0).
    """
    block = span_id // ID_BLOCK
    if block < MAX_INCARNATIONS:
        return -1, -1
    return block // MAX_INCARNATIONS - 1, block % MAX_INCARNATIONS


def load_spans(path: str) -> list[dict]:
    """Load span dicts from a ``spans.json`` file or a run directory."""
    if os.path.isdir(path):
        path = os.path.join(path, SPANS_FILENAME)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        doc = doc.get("spans", [])
    return list(doc)


def _job_of(span: dict) -> Optional[str]:
    args = span.get("args") or {}
    return args.get("job_id") or args.get("id") or args.get("unit_id")


def find_job_trace_id(spans: Iterable[dict], job_id: str) -> Optional[int]:
    """The trace id rooted by ``job_id``'s gateway ingress, if any."""
    fallback = None
    for span in spans:
        if _job_of(span) != job_id:
            continue
        if span.get("name") == "job ingress":
            return span.get("trace_id")
        if fallback is None:
            fallback = span.get("trace_id")
    return fallback


def job_trace(spans: Iterable[dict], job_id: str) -> dict:
    """Collect and order every span on ``job_id``'s trace.

    Returns ``{"job", "trace_id", "spans", "incarnations", "requeues"}``;
    ``spans`` sorted by (start, span_id) — the one causal chain the
    acceptance criteria ask for. Raises ``KeyError`` when the job roots
    no trace in the file.
    """
    spans = list(spans)
    trace_id = find_job_trace_id(spans, job_id)
    if trace_id is None:
        raise KeyError(f"no trace found for job {job_id!r}")
    chain = sorted(
        (s for s in spans if s.get("trace_id") == trace_id),
        key=lambda s: (s.get("start", 0.0), s.get("span_id", 0)))
    incarnations = sorted({
        span_origin(s.get("span_id", 0))
        for s in chain if span_origin(s.get("span_id", 0))[0] >= 0})
    requeues = sum(1 for s in chain
                   if "requeue" in (s.get("name") or "")
                   or s.get("outcome") == "requeue")
    return {
        "job": job_id,
        "trace_id": trace_id,
        "spans": chain,
        "incarnations": incarnations,
        "requeues": requeues,
    }


def _fmt_args(args: dict, limit: int = 3) -> str:
    if not args:
        return ""
    parts = [f"{k}={args[k]}" for k in sorted(args)[:limit]]
    more = len(args) - limit
    if more > 0:
        parts.append(f"+{more}")
    return " " + " ".join(parts)


def render_job_trace(trace: dict) -> str:
    """One causal span walk, human-readable, chronological."""
    chain = trace["spans"]
    lines = [f"job {trace['job']}  trace {trace['trace_id']}  "
             f"{len(chain)} spans  requeues={trace['requeues']}"]
    if trace["incarnations"]:
        incs = ", ".join(f"node{n}/inc{i}"
                         for n, i in trace["incarnations"])
        lines.append(f"incarnations: {incs}")
    t0 = chain[0].get("start", 0.0) if chain else 0.0
    for span in chain:
        start = span.get("start", 0.0)
        end = span.get("end")
        dur = "" if end is None else f" {max(0.0, end - start) * 1000:.2f}ms"
        node_idx, inc = span_origin(span.get("span_id", 0))
        origin = "sim" if node_idx < 0 else f"inc{inc}"
        outcome = span.get("outcome") or ""
        outcome = f" [{outcome}]" if outcome and outcome != "ok" else ""
        lines.append(
            f"  +{(start - t0) * 1000:9.2f}ms  {origin:>5}  "
            f"{span.get('component', '?'):<14} {span.get('name', '?')}"
            f"{dur}{outcome}{_fmt_args(span.get('args') or {})}")
    return "\n".join(lines)

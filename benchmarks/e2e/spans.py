"""Benchmark-owned span recorder.

The traced pass wraps the public callables at each layer boundary (class
attributes, patched before the world is built) from these files only; no
tracer inside ``src/`` is relied on. Every wrapped call is a span (name,
start, end, parent). Per-name totals are aggregated as spans close, so a
run of millions of calls costs O(names) memory; the first
:data:`SPAN_DUMP_CAP` spans are also kept whole and written out when the
run ends. A parent always starts before its children, so the kept prefix
is closed under "parent of".

A layer's self time is its spans' duration minus the part their child
spans cover.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Callable, Optional

__all__ = ["SPAN_DUMP_CAP", "OPEN", "Recorder", "check_dump"]

#: Whole spans kept for the dump (aggregates always cover every span).
SPAN_DUMP_CAP = 100_000
#: End time of a span still open when the dump was written.
OPEN = -1.0


class Recorder:
    """Nested span recorder for one single-threaded process."""

    def __init__(self, cap: int = SPAN_DUMP_CAP) -> None:
        self.cap = cap
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []     # summed span duration per name
        self.children: list[float] = []  # part of it covered by child spans
        #: Open spans, innermost last: [child seconds, dump index or -1].
        self._stack: list[list] = []
        #: Kept spans: [name id, start, end, parent dump index or -1].
        self.spans: list[list] = []
        #: Wrap targets that no longer exist (a later refactor removed
        #: them): their metrics read 0 and the run says so.
        self.missing: list[str] = []

    def reset(self) -> None:
        """Forget every closed span (start of the timed region); only
        valid while no span is open."""
        if self._stack:
            raise RuntimeError("reset() inside an open span")
        n = len(self.names)
        self.calls[:] = [0] * n
        self.total[:] = [0.0] * n
        self.children[:] = [0.0] * n
        del self.spans[:]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.children.append(0.0)
        return nid

    # -- recording -----------------------------------------------------------
    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recorded as one span named ``name`` per call."""
        nid = self.name_id(name)
        calls, total, children = self.calls, self.total, self.children
        stack, spans, cap = self._stack, self.spans, self.cap

        def traced(*args, **kwargs):
            t0 = perf_counter()
            if len(spans) < cap:
                idx = len(spans)
                spans.append([nid, t0, OPEN, stack[-1][1] if stack else -1])
            else:
                idx = -1
            frame = [0.0, idx]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                calls[nid] += 1
                total[nid] += elapsed
                children[nid] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if idx >= 0:
                    spans[idx][2] = t1
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself, not
        inherited) by its traced form; classmethods stay classmethods.
        A target that is not there is noted in :attr:`missing`."""
        raw = vars(owner).get(attr)
        self.name_id(name)
        if raw is None:
            self.missing.append(f"{owner.__name__}.{attr}")
        elif isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name)))
        else:
            setattr(owner, attr, self.wrap(raw, name))

    # -- reading -------------------------------------------------------------
    def layer(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of one span name; zeros if never seen."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.total[nid] - self.children[nid]

    def layers(self) -> dict[str, dict]:
        return {name: {"calls": self.calls[i],
                       "total_s": self.total[i],
                       "self_s": self.total[i] - self.children[i]}
                for i, name in enumerate(self.names)}

    def self_total(self) -> float:
        """Summed self time of every name = time under any root span."""
        return sum(self.total) - sum(self.children)

    def dump(self) -> dict:
        return {
            "schema": "e2e-spans/1",
            "names": self.names,
            "span_fields": ["name", "start_s", "end_s (-1: still open)",
                            "parent"],
            "spans": self.spans,
            "spans_total": sum(self.calls),
            "layers": self.layers(),
            "missing": self.missing,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh, separators=(",", ":"))


def check_dump(doc: dict) -> Optional[str]:
    """None if the span dump is well formed, else what is wrong: every
    parent exists and precedes its child, children lie inside parents,
    every name id resolves."""
    names, spans = doc.get("names"), doc.get("spans")
    if not isinstance(names, list) or not isinstance(spans, list):
        return "dump has no names/spans lists"
    for i, (nid, start, end, parent) in enumerate(spans):
        if not 0 <= nid < len(names):
            return f"span {i}: unknown name id {nid}"
        if end != OPEN and end < start:
            return f"span {i}: ends before it starts"
        if parent == -1:
            continue
        if not 0 <= parent < i:
            return f"span {i}: parent {parent} does not precede it"
        _, p_start, p_end, _ = spans[parent]
        if start < p_start or (p_end != OPEN and (end == OPEN or end > p_end)):
            return f"span {i}: not inside its parent {parent}"
    return None

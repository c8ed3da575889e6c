"""A bounded, sequence-numbered event feed (the gateway's /events).

Job-lifecycle transitions (submitted / assigned / requeued / done /
cancelled) are appended by the :class:`~repro.control.workqueue.WorkQueue`
as they happen; HTTP long-pollers tail the feed with
``GET /events?since=<seq>`` and get back newline-delimited JSON. The
ring is fixed-size: a slow consumer loses old events (and can see the
gap in the seq numbers), never stalls the producer. Terminal events are
self-contained (``done`` carries the result), so a consumer that keeps
up never has to ask about a job.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable

from .recordlog import encode_line

__all__ = ["EventLog", "render_jsonl"]

DEFAULT_EVENT_CAPACITY = 1024


class EventLog:
    """Fixed-capacity ring of seq-stamped event dicts."""

    __slots__ = ("capacity", "_events", "next_seq", "dropped")

    def __init__(self, capacity: int = DEFAULT_EVENT_CAPACITY) -> None:
        self.capacity = int(capacity)
        self._events: deque = deque(maxlen=self.capacity)
        #: Seq of the next event to be appended (first event gets 0).
        self.next_seq = 0
        #: Events evicted by the ring before any consumer saw them.
        self.dropped = 0

    @property
    def latest_seq(self) -> int:
        """Seq of the newest event, or -1 when the log is empty."""
        return self.next_seq - 1

    def append(self, event: dict) -> int:
        """Stamp ``event`` with the next seq and append it; returns seq."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        seq = self.next_seq
        event["seq"] = seq
        self.next_seq = seq + 1
        self._events.append(event)
        return seq

    def since(self, seq: int, limit: int = 500) -> list[dict]:
        """Events with seq strictly greater than ``seq``, oldest first.
        A cursor *beyond* the log belongs to an earlier incarnation of
        the producer (a reborn gateway numbers from 0): it restarts from
        the oldest retained event. Seqs in the ring are contiguous, so
        the start is arithmetic — O(returned), not O(capacity)."""
        events = self._events
        first = self.next_seq - len(events)
        start = 0 if seq >= self.next_seq else max(seq + 1 - first, 0)
        stop = min(start + limit, len(events)) if limit else len(events)
        return [events[i] for i in range(start, stop)]

    def __len__(self) -> int:
        return len(self._events)


def render_jsonl(events: Iterable[dict]) -> str:
    """Newline-delimited JSON, one event per line (byte-stable order)."""
    return "".join(map(encode_line, events))


def parse_jsonl(text: str) -> list[dict]:
    """Inverse of :func:`render_jsonl`; skips blank lines."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]

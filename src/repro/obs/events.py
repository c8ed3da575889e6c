"""A bounded, sequence-numbered event feed (the gateway's /events).

Job-lifecycle transitions (submitted / assigned / requeued / done /
cancelled) are appended by the :class:`~repro.control.workqueue.WorkQueue`
as they happen; HTTP long-pollers tail the feed with
``GET /events?since=<seq>`` and get back newline-delimited JSON. The
ring is fixed-size: a slow consumer loses old events (and can see the
gap in the seq numbers), never stalls the producer. Terminal events are
self-contained (``done`` carries the result), so a consumer that keeps
up never has to ask about a job.

An event is held as the fragments it was appended with and rendered to
its line at most once, by the first read that reaches it: a producer no
one reads (a storm of submits) pays for a tuple per event, and a
``done`` line splices the result text the journal already rendered
(DESIGN §13).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable, Union

from .recordlog import _encode, _encode_str, _line

__all__ = ["EventLog", "render_jsonl"]

DEFAULT_EVENT_CAPACITY = 1024


def _render(entry: tuple) -> str:
    """An appended entry as its feed line: ``encode_line`` of the event's
    dict form to the byte (keys in sorted order, ``extra`` between
    ``job`` and ``seq``)."""
    seq, event, job, t, extra = entry
    return (f'{{"event":{_encode_str(event)},"job":{_encode_str(job)}'
            f'{extra},"seq":{seq},"t":{_encode(t)}}}\n')


class EventLog:
    """Fixed-capacity ring of seq-stamped lifecycle events."""

    __slots__ = ("capacity", "_events", "next_seq", "dropped")

    def __init__(self, capacity: int = DEFAULT_EVENT_CAPACITY) -> None:
        self.capacity = int(capacity)
        #: Per event, its appended fragments until a read renders them,
        #: then its line.
        self._events: deque = deque(maxlen=self.capacity)
        #: Seq of the next event to be appended (first event gets 0).
        self.next_seq = 0
        #: Events evicted by the ring before any consumer saw them.
        self.dropped = 0

    @property
    def latest_seq(self) -> int:
        """Seq of the newest event, or -1 when the log is empty."""
        return self.next_seq - 1

    def append(self, event: str, job: str, t: float, extra: str = "") -> int:
        """Append one event about ``job`` at time ``t``; returns its seq.
        ``extra`` is the event's further members, already rendered, each
        with its leading comma, in key order and sorting between ``job``
        and ``seq`` (``',"requeues":1'``)."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        seq = self.next_seq
        self.next_seq = seq + 1
        self._events.append((seq, event, job, t, extra))
        return seq

    def since(self, seq: int, limit: int = 500) -> list[str]:
        """The lines of the events with seq strictly greater than
        ``seq``, oldest first; each is rendered by the first read that
        reaches it and kept. A cursor *beyond* the log belongs to an
        earlier incarnation of the producer (a reborn gateway numbers
        from 0): it restarts from the oldest retained event. Seqs in the
        ring are contiguous, so the start is arithmetic — O(returned),
        not O(capacity)."""
        events = self._events
        first = self.next_seq - len(events)
        start = 0 if seq >= self.next_seq else max(seq + 1 - first, 0)
        stop = min(start + limit, len(events)) if limit else len(events)
        lines = []
        for i in range(start, stop):
            entry = events[i]
            if entry.__class__ is tuple:
                entry = events[i] = _render(entry)
            lines.append(entry)
        return lines

    def __len__(self) -> int:
        return len(self._events)


def render_jsonl(events: Iterable[Union[dict, str]]) -> str:
    """Newline-delimited JSON, one event per line (byte-stable order); a
    ``str`` is a line already rendered (:meth:`EventLog.since`)."""
    return "".join(map(_line, events))


def parse_jsonl(text: str) -> list[dict]:
    """Inverse of :func:`render_jsonl`; skips blank lines. The page is
    parsed by one ``json.loads`` over its lines joined as an array (a
    rendered line holds no raw newline). ValueError if that fails, or if
    the value count differs from the line count (a line holding two
    values)."""
    lines = list(filter(str.strip, text.splitlines()))
    values = json.loads("[" + ",".join(lines) + "]")
    if len(values) != len(lines):
        raise ValueError(f"{len(lines)} lines hold {len(values)} values")
    return values

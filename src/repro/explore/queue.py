"""The EMEWS EQ/Py-style task queue over the job gateway (DESIGN §16).

:class:`FeedPump`, one sans-IO conversation, pushes evaluation specs
(one ``POST /jobs/batch``: one journal flush) and retires them from the
gateway's long-polled ``/events`` feed: a terminal line carries
``result`` and ``requeues``, and the pump keeps each spec it pushed.
Probing job records is the fallback for lines the feed lost. The same
pump runs on both planes — :class:`ExploreQueue` runs it through a
:class:`~repro.control.client.GatewayClient`, an
:class:`~repro.control.sim.HttpUser` on the twin — over nothing but the
unchanged control plane: the ME side needs just HTTP.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Callable, Optional

from ..control.http import HttpError
from ..obs.events import parse_jsonl

__all__ = ["ExploreQueue", "FeedPump"]

#: Terminal job states: a feed line or record in one retires its job.
_TERMINAL = ("done", "cancelled")
#: How long a push keeps retrying a refused connection (a supervisor
#: respawns a killed gateway within its restart backoff).
REFUSED_RETRY_S = 15.0
#: Feed lines asked for per ``/events`` read.
PAGE = 500
#: Outstanding jobs read directly per probe after the feed lost lines.
PROBE_LIMIT = 64


class FeedPump:
    """The EMEWS pump: what was pushed, what is outstanding, the feed
    cursor, and the one feed rule. A *turn* long-polls ``GET
    /events?since=…&limit=500&wait=<poll>`` until a page comes back
    short, then, after a seq break or if the turn read no line at all,
    reads up to :data:`PROBE_LIMIT` outstanding job records. The next
    turn starts at once, or ``poll`` after the start of one that retired
    nothing. Retired jobs queue on :attr:`ready`. With a ``driver`` the
    pump pushes each generation it mints, feeds it what retires and ends
    once it is finished; with ``specs`` it ends once they all retired."""

    #: How push→retire latency is reported: (result key, clock units →
    #: reported unit, digits kept).
    LATENCY = ("latency_s", 1.0, 6)

    def __init__(self, driver=None, specs: list = (),
                 poll: float = 0.05) -> None:
        #: job id -> (push time in the caller's clock, the spec pushed).
        self.outstanding: dict[str, tuple[float, dict]] = {}
        #: Every id ever pushed, in push order (the verify sweep's list).
        self.pushed_ids: list[str] = []
        self.pushed = self.popped = self.cancelled_seen = 0
        #: Seq of the last feed line read, and how many times the
        #: numbering broke (lines this pump will never see).
        self.since, self.seq_breaks = -1, 0
        #: Latency of each retired job; the records nobody took yet.
        self.latencies: list[float] = []
        self.ready: deque[dict] = deque()
        self.driver, self.poll = driver, poll
        #: The generation waiting to be pushed.
        self._pending = list(specs) if driver is None \
            else driver.initial_tasks()
        self._ends = driver is not None or bool(self._pending)
        #: The turn under way (seq breaks and retirements before it,
        #: lines read, start), the ids it still has to probe; when (the
        #: caller's clock) the pump asks next, and last had an answer.
        self._turn: Optional[tuple[int, int, int, float]] = None
        self._probe: list[str] = []
        self.resume_at = self._answered_at = 0.0
        #: When follow-up generations were minted (ME round trips), when
        #: the pump finished, the gateway's error for each refused push.
        self.rounds: list[float] = []
        self.finished_at: Optional[float] = None
        self.refused: list[str] = []

    def record_push(self, ids: list[str], specs: list[dict],
                    now: float) -> None:
        """The gateway accepted ``specs`` as ``ids`` at ``now``."""
        for job_id, spec in zip(ids, specs):
            self.outstanding[job_id] = (now, spec)
        self.pushed_ids.extend(ids)
        self.pushed += len(ids)

    def retire(self, job_id: str, state: str, doc: dict, now: float) -> dict:
        """Retire one outstanding job; returns its result record. ``doc``
        is its terminal feed line or its job record: both carry ``result``
        and ``requeues``; the spec is the one pushed."""
        key, scale, digits = self.LATENCY
        pushed_at, spec = self.outstanding.pop(job_id)
        latency = round((now - pushed_at) * scale, digits)
        self.latencies.append(latency)
        self.popped += 1
        self.cancelled_seen += state == "cancelled"
        return {"id": job_id, "state": state, "spec": spec,
                "result": doc.get("result"),
                "requeues": doc.get("requeues", 0), key: latency}

    def ingest(self, events: list[dict], now: float) -> list[dict]:
        """Consume one ``/events`` page; returns the result records of
        the outstanding jobs its terminal lines retired."""
        retired = []
        since, breaks, outstanding = self.since, 0, self.outstanding
        for event in events:
            # Seqs are contiguous: a jump ahead is ring overflow, a jump
            # back a reborn gateway numbering from 0. Adopt the feed's
            # numbering — `outstanding` dedupes whatever is then read
            # twice; what was missed only a probe of the records finds.
            seq = event["seq"]
            breaks += seq != since + 1
            since = seq
            state, job_id = event.get("event"), event.get("job")
            if state in _TERMINAL and job_id in outstanding:
                retired.append(self.retire(job_id, state, event, now))
        self.since = since
        self.seq_breaks += breaks
        return retired

    def latency_quantile(self, p: float) -> Optional[float]:
        lat = sorted(self.latencies)
        return lat[min(len(lat) - 1, int(p * len(lat)))] if lat else None

    def next_request(self) -> Optional[tuple[str, str, str, Optional[dict]]]:
        if self._pending:
            return "push", "POST", "/jobs/batch", {"specs": self._pending}
        if self._probe:
            return "probe", "GET", f"/jobs/{self._probe[0]}", None
        if self.finished_at is not None:
            return None
        return ("events", "GET", f"/events?since={self.since}&limit={PAGE}"
                f"&wait={self.poll:g}", None)

    def answer(self, kind: str, status: int, body: bytes,
               now: float) -> None:
        asked = max(self.resume_at, self._answered_at)
        self.resume_at = self._answered_at = now
        if kind == "push":
            specs, self._pending = self._pending, []
            doc = json.loads(body)
            if status == 201:
                self.record_push(doc["ids"], specs, now)
            else:
                self.refused.append(doc["error"])
            return
        more = False  # the last page was full
        if kind == "probe":
            job_id = self._probe.pop(0)
            doc = json.loads(body) if status == 200 else {}
            if doc.get("state") in _TERMINAL and job_id in self.outstanding:
                self.ready.append(self.retire(job_id, doc["state"], doc, now))
        else:
            events = parse_jsonl(body.decode("utf-8")) if status == 200 \
                else []
            breaks, popped, lines, began = self._turn or (
                self.seq_breaks, self.popped, 0, asked)
            self.ready.extend(self.ingest(events, now))
            self._turn = (breaks, popped, lines + len(events), began)
            more = len(events) >= PAGE
            if not more and (self.seq_breaks != breaks or not self._turn[2]):
                self._probe = list(self.outstanding)[:PROBE_LIMIT]
        if not (self._probe or more):
            _, popped, _, began = self._turn
            self._turn = None
            if self.popped == popped:
                self.resume_at = began + self.poll
        if self.driver is not None:
            while self.ready:
                record = self.ready.popleft()
                self.driver.observe(record["spec"], record["result"])
            self._pending = self.driver.next_tasks()
            if self._pending:
                self.rounds.append(round(now, 6))
        if self._ends and (self.driver.finished() if self.driver is not None
                           else self.pushed and not self.outstanding):
            self.finished_at = round(now, 6)

    def stats(self) -> dict:
        return {"pushed": self.pushed, "popped": self.popped,
                "outstanding": len(self.outstanding),
                "batch_rejected": len(self.refused), "rounds": self.rounds,
                "finished_at": self.finished_at,
                "pop_p50": self.latency_quantile(0.5),
                "pop_max": self.latency_quantile(1.0)}


class ExploreQueue(FeedPump):
    """The :class:`FeedPump` run to completion through ``client``
    (``request_raw(method, path, doc)`` → ``(status, body)``: a
    :class:`~repro.control.client.GatewayClient`). ``pump``, when given,
    is called on every poll iteration — the live harness hooks its
    collector/supervisor step loop in so the grid keeps running while the
    ME blocks. ``batch=False`` pushes one spec per request."""

    LATENCY = ("latency_ms", 1000.0, 3)

    def __init__(self, client, batch: bool = True, poll: float = 0.05,
                 clock: Callable[[], float] = time.monotonic,
                 pump: Optional[Callable[[], None]] = None) -> None:
        super().__init__(poll=poll)
        self.client, self.batch, self.clock, self.pump = (client, batch,
                                                          clock, pump)
        #: submit→pop latency per popped result, ms (bench fodder).
        self.pop_latencies_ms = self.latencies

    def _exchange(self) -> None:
        kind, method, path, doc = self.next_request()
        status, body = self.client.request_raw(method, path, doc)
        self.answer(kind, status, body, self.clock())

    def push_tasks(self, specs: list[dict]) -> list[str]:
        """Submit a batch of evaluation specs; returns the job ids. A
        refused connection (the gateway is restarting) sent nothing, so
        that push is retried for up to ``REFUSED_RETRY_S``; any other
        failure may have been accepted and is raised."""
        specs, first = list(specs), len(self.pushed_ids)
        for batch in ([specs] if self.batch and specs
                      else [[spec] for spec in specs]):
            self._pending = batch
            try:
                self._push()
            finally:
                self._pending = []
            if self.refused:
                raise HttpError(f"batch submit rejected: {self.refused.pop()}")
        return self.pushed_ids[first:]

    def _push(self) -> None:  # the pending batch, retried while refused
        deadline = self.clock() + REFUSED_RETRY_S
        while True:
            try:
                return self._exchange()
            except HttpError as exc:
                if (not isinstance(exc.__cause__, ConnectionRefusedError)
                        or self.clock() >= deadline):
                    raise
            if self.pump is not None:
                self.pump()
            time.sleep(self.poll)

    def _ingest_events(self) -> int:
        """One turn of the feed rule; how many jobs it retired."""
        popped = self.popped
        self._exchange()
        while self._turn is not None:  # pages or probes left
            self._exchange()
        return self.popped - popped

    def pop_results(self, min_results: int = 1,
                    timeout: float = 30.0) -> list[dict]:
        """Block until at least ``min_results`` results are ready (or
        nothing is outstanding, or ``timeout`` expires); returns *all*
        ready results. Each is ``{"id", "state", "spec", "result",
        "requeues", "latency_ms"}``. An iteration that retires nothing
        costs ``poll`` seconds in all (long-poll plus sleep)."""
        deadline = self.clock() + timeout
        while (len(self.ready) < min_results and self.outstanding
               and self.clock() < deadline):
            started = self.clock()
            try:
                self._ingest_events()
                wake = self.resume_at
            except HttpError:  # gateway down or restarting: a missed poll
                wake = started + self.poll
            if self.pump is not None:
                self.pump()
            time.sleep(max(0.0, wake - self.clock()))
        out = list(self.ready)
        self.ready.clear()
        return out

    def done(self) -> dict:
        """End the ME session; returns (and asserts nothing is lost in)
        the final accounting."""
        if self.outstanding:
            raise RuntimeError(
                f"ExploreQueue.done() with {len(self.outstanding)} "
                f"evaluations still outstanding: "
                f"{sorted(self.outstanding)[:5]}...")
        return self.stats()

    def stats(self) -> dict:
        return {"pushed": self.pushed, "popped": self.popped,
                "outstanding": len(self.outstanding),
                "cancelled_seen": self.cancelled_seen,
                "pop_p50_ms": self.latency_quantile(0.50),
                "pop_p99_ms": self.latency_quantile(0.99)}

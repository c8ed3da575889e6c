"""The EMEWS EQ/Py-style task queue over the job gateway.

:class:`ExploreQueue` is the ME algorithm's *only* interface to the
grid: ``push_tasks`` submits a batch of evaluation specs (one ``POST
/jobs/batch``, one journal flush), ``pop_results`` blocks until
completed evaluations are available, ``done`` closes the session with a
consistency check. Underneath it is nothing but the unchanged control
plane — the gateway journals the specs, the scheduler hands them to
whatever computational clients say HELLO, the WorkQueue distrusts and
accepts their reports — which is the point: the ME side needs no
EveryWare-specific machinery at all, just HTTP.

Result consumption tails the gateway's ``/events`` feed: terminal events
are self-contained (``done`` carries ``result`` and ``requeues``) and the
queue remembers the spec it pushed, so a job retires straight from its
feed line — no ``GET /jobs/{id}`` — and the read long-polls, returning as
soon as something happens. Directly probing outstanding job records is
the fallback for what the feed lost: its ring is bounded and a reborn
gateway renumbers it, both visible as a break in the seq numbers.
Per-result submit→pop latency is recorded for the bench.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Optional

__all__ = ["ExploreQueue"]

#: Terminal job states: a feed line or record in one retires its job.
_TERMINAL = ("done", "cancelled")


class FeedConsumer:
    """The ME side of the feed protocol, sans-IO (DESIGN §16): what was
    pushed, what is still outstanding, where the ``/events`` cursor
    stands, and the push→retire accounting. A subclass supplies the
    transport — :class:`ExploreQueue` blocks on a ``GatewayClient``,
    :class:`~repro.explore.sim.MEDriverComponent` exchanges
    ``GW_REQ``/``GW_RES`` under simulated time — and hands every answer
    here with its own clock reading."""

    #: How push→retire latency is reported: (result key, clock units →
    #: reported unit, digits kept).
    LATENCY = ("latency_s", 1.0, 6)

    def __init__(self) -> None:
        #: job id -> (push time in the caller's clock, the spec pushed).
        self.outstanding: dict[str, tuple[float, dict]] = {}
        #: Every id ever pushed, in push order (the verify sweep's list).
        self.pushed_ids: list[str] = []
        self.pushed = 0
        self.popped = 0
        self.cancelled_seen = 0
        #: Seq of the last feed line read, and how many times the
        #: numbering broke (lines this consumer will never see).
        self.since = -1
        self.seq_breaks = 0
        #: Latency of every retired job, in push order of retirement.
        self.latencies: list[float] = []

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
        return {
            "id": job_id,
            "state": state,
            "spec": spec,
            "result": doc.get("result"),
            "requeues": doc.get("requeues", 0),
            key: latency,
        }

    def ingest(self, events: list[dict], now: float) -> list[dict]:
        """Consume one ``/events`` answer; returns the result records of
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


class ExploreQueue(FeedConsumer):
    """Blocking push/pop facade over a gateway client (see module doc).

    ``client`` is anything :class:`~repro.control.client.GatewayClient`
    -shaped (``submit``/``submit_batch``/``job``/``events``). ``pump``,
    when given, is called on every poll iteration — the live harness
    hooks its collector/supervisor step loop in so the grid keeps
    running while the ME blocks.
    """

    LATENCY = ("latency_ms", 1000.0, 3)

    def __init__(self, client, batch: bool = True, poll: float = 0.05,
                 probe_limit: int = 64,
                 clock: Callable[[], float] = time.monotonic,
                 pump: Optional[Callable[[], None]] = None) -> None:
        super().__init__()
        self.client = client
        self.batch = batch
        self.poll = poll
        self.probe_limit = probe_limit
        self.clock = clock
        self.pump = pump
        self._ready: deque[dict] = deque()
        #: submit→pop latency per popped result, ms (bench fodder).
        self.pop_latencies_ms = self.latencies

    # -- push ----------------------------------------------------------------
    def push_tasks(self, specs: list[dict]) -> list[str]:
        """Submit a batch of evaluation specs; returns the job ids."""
        specs = list(specs)
        if not specs:
            return []
        if self.batch:
            ids = self.client.submit_batch(specs)
        else:
            ids = [str(self.client.submit(spec)["id"]) for spec in specs]
        self.record_push(ids, specs, self.clock())
        return ids

    # -- pop -----------------------------------------------------------------
    def _ingest_events(self) -> int:
        """One /events poll (parked server-side for up to ``poll``
        seconds while the feed is quiet); returns how many outstanding
        jobs retired."""
        retired, wait, breaks = 0, self.poll, self.seq_breaks
        while True:
            events = self.client.events(since=self.since, wait=wait,
                                        limit=500)
            records = self.ingest(events, self.clock())
            self._ready.extend(records)
            retired += len(records)
            if len(events) < 500:
                if self.seq_breaks != breaks:
                    retired += self._probe_outstanding()
                return retired
            wait = 0.0

    def _probe_outstanding(self) -> int:
        """Directly poll a bounded slice of outstanding job records — the
        only per-job reader: the safety net for completions the feed lost
        (ring overflow, gateway restart)."""
        retired = 0
        for job_id in list(self.outstanding)[:self.probe_limit]:
            doc = self.client.job(job_id)
            if doc is not None and doc.get("state") in _TERMINAL:
                self._ready.append(
                    self.retire(job_id, doc["state"], doc, self.clock()))
                retired += 1
        return retired

    def pop_results(self, min_results: int = 1,
                    timeout: float = 30.0) -> list[dict]:
        """Block until at least ``min_results`` results are ready (or
        nothing is outstanding, or ``timeout`` expires); returns *all*
        ready results. Each is ``{"id", "state", "spec", "result",
        "requeues", "latency_ms"}``. An iteration that finds nothing costs
        ``poll`` seconds in all (long-poll plus sleep)."""
        deadline = self.clock() + timeout
        while (len(self._ready) < min_results and self.outstanding
               and self.clock() < deadline):
            started = self.clock()
            quiet = (self._ingest_events() == 0
                     and self._probe_outstanding() == 0)
            if self.pump is not None:
                self.pump()
            if quiet:
                time.sleep(max(0.0, self.poll - (self.clock() - started)))
        out = list(self._ready)
        self._ready.clear()
        return out

    # -- session -------------------------------------------------------------
    def done(self) -> dict:
        """End the ME session; returns (and asserts nothing is lost in)
        the final accounting."""
        summary = self.stats()
        if self.outstanding:
            raise RuntimeError(
                f"ExploreQueue.done() with {len(self.outstanding)} "
                f"evaluations still outstanding: "
                f"{sorted(self.outstanding)[:5]}...")
        return summary

    def stats(self) -> dict:
        return {
            "pushed": self.pushed,
            "popped": self.popped,
            "outstanding": len(self.outstanding),
            "cancelled_seen": self.cancelled_seen,
            "pop_p50_ms": self.latency_quantile(0.50),
            "pop_p99_ms": self.latency_quantile(0.99),
        }

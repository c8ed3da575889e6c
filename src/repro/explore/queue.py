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

#: Terminal job states: popping one of these retires the outstanding id.
_TERMINAL = ("done", "cancelled")


class ExploreQueue:
    """Blocking push/pop facade over a gateway client (see module doc).

    ``client`` is anything :class:`~repro.control.client.GatewayClient`
    -shaped (``submit``/``submit_batch``/``job``/``events``). ``pump``,
    when given, is called on every poll iteration — the live harness
    hooks its collector/supervisor step loop in so the grid keeps
    running while the ME blocks.
    """

    def __init__(self, client, batch: bool = True, poll: float = 0.05,
                 probe_limit: int = 64,
                 clock: Callable[[], float] = time.monotonic,
                 pump: Optional[Callable[[], None]] = None) -> None:
        self.client = client
        self.batch = batch
        self.poll = poll
        self.probe_limit = probe_limit
        self.clock = clock
        self.pump = pump
        #: job id -> (push timestamp in clock units, the spec pushed).
        self.outstanding: dict[str, tuple[float, dict]] = {}
        self._ready: deque[dict] = deque()
        self._since = -1
        #: Every id ever pushed, in push order (the verify sweep's list).
        self.pushed_ids: list[str] = []
        self.pushed = 0
        self.popped = 0
        self.cancelled_seen = 0
        #: submit→pop latency per popped result, ms (bench fodder).
        self.pop_latencies_ms: list[float] = []

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
        now = self.clock()
        for job_id, spec in zip(ids, specs):
            self.outstanding[job_id] = (now, spec)
        self.pushed_ids.extend(ids)
        self.pushed += len(ids)
        return ids

    # -- pop -----------------------------------------------------------------
    def _retire(self, job_id: str, state: str, doc: dict) -> None:
        """Move one outstanding job to the ready list. ``doc`` is its
        terminal feed event or its job record: both carry ``result`` and
        ``requeues``; the spec is the one pushed."""
        pushed_at, spec = self.outstanding.pop(job_id)
        latency_ms = round((self.clock() - pushed_at) * 1000.0, 3)
        self.pop_latencies_ms.append(latency_ms)
        self.cancelled_seen += state == "cancelled"
        self._ready.append({
            "id": job_id,
            "state": state,
            "spec": spec,
            "result": doc.get("result"),
            "requeues": doc.get("requeues", 0),
            "latency_ms": latency_ms,
        })

    def _ingest_events(self) -> int:
        """One /events poll (parked server-side for up to ``poll``
        seconds while the feed is quiet); returns how many outstanding
        jobs retired."""
        retired, wait, broken = 0, self.poll, False
        while True:
            events = self.client.events(since=self._since, wait=wait,
                                        limit=500)
            for event in events:
                # Seqs are contiguous: a jump ahead is ring overflow, a
                # jump back a reborn gateway numbering from 0. Adopt the
                # feed's numbering; what was missed only a probe finds.
                broken = broken or event["seq"] != self._since + 1
                self._since = event["seq"]
                state, job_id = event.get("event"), event.get("job")
                if state in _TERMINAL and job_id in self.outstanding:
                    self._retire(job_id, state, event)
                    retired += 1
            if len(events) < 500:
                return retired + (self._probe_outstanding() if broken else 0)
            wait = 0.0

    def _probe_outstanding(self) -> int:
        """Directly poll a bounded slice of outstanding job records — the
        only per-job reader: the safety net for completions the feed lost
        (ring overflow, gateway restart)."""
        retired = 0
        for job_id in list(self.outstanding)[:self.probe_limit]:
            doc = self.client.job(job_id)
            if doc is not None and doc.get("state") in _TERMINAL:
                self._retire(job_id, doc["state"], doc)
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
        self.popped += len(out)
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
        lat = sorted(self.pop_latencies_ms)
        def pct(p: float) -> Optional[float]:
            if not lat:
                return None
            return lat[min(len(lat) - 1, int(p * len(lat)))]
        return {
            "pushed": self.pushed,
            "popped": self.popped,
            "outstanding": len(self.outstanding),
            "cancelled_seen": self.cancelled_seen,
            "pop_p50_ms": pct(0.50),
            "pop_p99_ms": pct(0.99),
        }

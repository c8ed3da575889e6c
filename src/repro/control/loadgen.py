"""Synthetic gateway users: a single-threaded HTTP storm driver.

Up to thousands of keep-alive users against one gateway from one poll
loop, each a :class:`UserMix` (its own RNG: reproducible) on an
:class:`~repro.control.client.HttpSocket`; a dead connection (a
SIGKILLed gateway, churn) reconnects after a short backoff, like users
hammering refresh while a service restarts. Accepted job ids are kept,
so a live users :class:`~repro.control.scenario.Scenario` can prove
none was lost across the kill (``benchmarks/bench_gateway.py`` floors
the storm at 1,000+ connections).
"""

from __future__ import annotations

import json
import random
import selectors
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .client import HttpSocket
from .http import HttpError

__all__ = ["GatewayStorm", "StormStats"]

#: Reconnect backoff after a refused/reset connection (seconds). Short:
#: the supervisor's restart backoff dominates an outage, and clients
#: knocking politely is what "no accepted job lost" is measured under.
RECONNECT_DELAY = 0.1


def _default_spec(rng: random.Random) -> dict:
    return {"kind": "noop", "payload": rng.randrange(1 << 16)}


@dataclass(slots=True, eq=False)
class UserMix:
    """One synthetic user's request mix, sans-IO (DESIGN §13).

    :meth:`next_request` rolls the user's own RNG for the next
    submit/query/cancel — the same draws in the same order on every
    plane — and :meth:`answer` classifies the reply, remembering an
    accepted id and counting the outcome on ``tally`` (anything with
    ``submitted``/``queried``/``cancelled``/``rejected`` counters).
    :class:`GatewayStorm` carries the conversation over real sockets,
    :class:`~repro.control.sim.HttpUser` over simulated segments."""

    rng: random.Random
    tally: object
    submit_fraction: float
    cancel_fraction: float
    spec_factory: Callable[[random.Random], dict]
    #: Ids this user's submissions were answered 201 for.
    ids: list[str] = field(default_factory=list)

    def next_request(self) -> tuple[str, str, str, Optional[dict]]:
        """``(kind, method, path, body)`` of the user's next request."""
        rng = self.rng
        roll = rng.random()
        if self.ids and roll >= self.submit_fraction:
            job_id = rng.choice(self.ids)
            if roll >= 1.0 - self.cancel_fraction:
                return "cancel", "POST", f"/jobs/{job_id}/cancel", None
            return "query", "GET", f"/jobs/{job_id}", None
        return "submit", "POST", "/jobs", self.spec_factory(rng)

    def outcome(self, kind: str, status: int, doc) -> str:
        """Classify the answer to a ``kind`` request (``doc`` is its
        decoded JSON body, read only for a submit) and count it."""
        name = "rejected"
        if kind == "submit":
            job_id = doc.get("id") if isinstance(doc, dict) else None
            if status == 201 and isinstance(job_id, str):
                self.ids.append(job_id)
                name = "submitted"
        elif kind == "query":
            if status == 200:
                name = "queried"
        elif status in (200, 404, 409):
            name = "cancelled"
        setattr(self.tally, name, getattr(self.tally, name) + 1)
        return name

    def answer(self, kind: str, status: int, body: bytes,
               now: float) -> str:
        """:meth:`outcome` of a raw reply (a mix keeps no clock)."""
        try:
            doc = json.loads(body) if kind == "submit" else None
        except ValueError:
            doc = None
        return self.outcome(kind, status, doc)


class StormStats:
    """Aggregate meters across every logical client."""

    __slots__ = ("submitted", "queried", "cancelled", "errors",
                 "reconnects", "rejected", "query_latencies",
                 "submit_latencies")

    def __init__(self) -> None:
        self.submitted = self.queried = self.cancelled = 0
        self.errors = self.reconnects = self.rejected = 0
        self.query_latencies: list[float] = []
        self.submit_latencies: list[float] = []

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__[:6]}


class GatewayStorm:
    """Pumpable storm of ``clients`` concurrent gateway users, each an
    :class:`~repro.control.client.HttpSocket` on one selector while it is
    connected. Call :meth:`step` from the harness loop; stats accumulate
    in :attr:`stats`, every accepted job id lands in :attr:`accepted`."""

    def __init__(self, host: str, port: int, clients: int = 200,
                 seed: int = 0, submit_fraction: float = 0.5,
                 cancel_fraction: float = 0.1, churn_every: int = 0,
                 spec_factory: Callable[[random.Random], dict]
                 = _default_spec) -> None:
        self.address = (host, int(port))
        #: Close and reopen a connection after this many responses
        #: (0 = no churn): models users coming and going.
        self.churn_every = churn_every
        self.stats = StormStats()
        self.accepted: list[str] = []
        self._sel = selectors.DefaultSelector()
        #: One read buffer for every user; decoders copy what they are fed.
        self._rbuf = memoryview(bytearray(262144))
        self._mixes = [UserMix(random.Random(f"{seed}:{i}"), self.stats,
                               submit_fraction, cancel_fraction,
                               spec_factory) for i in range(clients)]
        #: Each user's connection (``None`` between connections), and
        #: when it may reconnect.
        self._links: list[Optional[HttpSocket]] = [None] * clients
        self._retry_at = [0.0] * clients
        self._closed = self._quiescing = False

    def _open(self, i: int, now: float) -> None:
        """Connect; the first request goes out once connected."""
        try:
            link = self._links[i] = HttpSocket(self.address, self._mixes[i],
                                               self._sel, i)
        except OSError:
            self._fail(i, now)
            return
        if link.connected:
            link.send(now)

    def _teardown(self, i: int, retry_at: float = 0.0) -> None:
        if self._links[i] is not None:
            self._links[i].close()
            self._links[i] = None
        self._retry_at[i] = retry_at

    def _fail(self, i: int, now: float) -> None:
        """Connection died (gateway down or restarting): back off and
        let :meth:`step` reconnect. An unanswered request counts as an
        error — and an unanswered submit is *not* an accepted job."""
        link = self._links[i]
        self.stats.errors += bool(link and link.http.inflight)
        self.stats.reconnects += 1
        self._teardown(i, now + RECONNECT_DELAY)

    def _finish(self, i: int, outcome: str, closing: bool,
                now: float) -> None:
        link = self._links[i]
        elapsed_ms = (now - link.sent_at) * 1000.0
        if outcome == "submitted":
            self.stats.submit_latencies.append(elapsed_ms)
            self.accepted.append(self._mixes[i].ids[-1])
        elif outcome == "queried":
            self.stats.query_latencies.append(elapsed_ms)
        if (self._quiescing or closing
                or (self.churn_every and link.answered >= self.churn_every)):
            # Else voluntary churn: this user leaves; a fresh one takes
            # the slot on the next step.
            self.stats.reconnects += not (self._quiescing or closing)
            self._teardown(i)
        else:
            link.send(now)

    def step(self, timeout: float = 0.0) -> None:
        """One poll turn: reconnect due users, then service readiness."""
        if self._closed:
            return
        now = time.monotonic()
        if not self._quiescing:
            for i, link in enumerate(self._links):
                if link is None and now >= self._retry_at[i]:
                    self._open(i, now)
        for key, mask in self._sel.select(timeout):
            i, now = key.data, time.monotonic()
            if self._links[i] is None:
                continue
            try:
                done = self._links[i].ready(mask, self._rbuf, now)
                if done is not None:
                    self._finish(i, *done, now)
            except (OSError, HttpError):
                self._fail(i, now)

    def quiesce(self, grace: float = 2.0) -> None:
        """Stop issuing new requests; drain in-flight responses."""
        deadline = time.monotonic() + grace
        self._quiescing = True
        while (any(link is not None and link.http.inflight
                   for link in self._links)
               and time.monotonic() < deadline):
            self.step(0.02)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for i in range(len(self._links)):
            self._teardown(i)
        self._sel.close()

"""Synthetic gateway users: a single-threaded HTTP storm driver.

Drives hundreds to thousands of concurrent keep-alive connections
against one gateway from a single poll loop — the load-generator
counterpart of the transport benchmark's echo storm, speaking HTTP
instead of CRC packets. Each logical client runs an independent
submit/query/cancel loop (per-client RNG, so mixes are reproducible),
one request in flight per connection; dead connections (a SIGKILLed
gateway, injected churn) reconnect with a short backoff, exactly like
external users hammering refresh while a service restarts.

Used by ``benchmarks/bench_gateway.py`` (floors on submissions/s and
query p99 at 1,000+ connections) and by the ``repro serve`` harness
(the kill/restart storm ``tests/control/test_serve_live.py`` runs in
the tier-1 suite). Accepted job
ids — submissions the gateway answered 201 — are recorded so the
harness can sweep them afterwards and prove none was lost across a
kill/restart.
"""

from __future__ import annotations

import errno
import json
import random
import selectors
import socket
import time
from typing import Callable, Optional

from .http import HttpResponseDecoder, HttpError

__all__ = ["GatewayStorm", "StormStats"]

_INPROGRESS = {errno.EINPROGRESS, errno.EWOULDBLOCK, errno.EALREADY}

#: Reconnect backoff after a refused/reset connection (seconds). Short:
#: the supervisor's restart backoff dominates an outage, and clients
#: knocking politely is what "no accepted job lost" is measured under.
RECONNECT_DELAY = 0.1


def _default_spec(rng: random.Random) -> dict:
    return {"kind": "noop", "payload": rng.randrange(1 << 16)}


class UserMix:
    """One synthetic user's request mix, sans-IO (DESIGN §13).

    :meth:`next_request` rolls the user's own RNG for the next
    submit/query/cancel — the same draws in the same order on every
    plane — and :meth:`outcome` classifies the answer, remembering an
    accepted id and counting the outcome on ``tally`` (anything with
    ``submitted``/``queried``/``cancelled``/``rejected`` counters).
    :class:`GatewayStorm` frames the requests as HTTP over real sockets,
    :class:`~repro.control.sim.SimJobUser` as ``GW_REQ`` messages.
    """

    __slots__ = ("rng", "tally", "submit_fraction", "cancel_fraction",
                 "spec_factory", "ids")

    def __init__(self, rng: random.Random, tally, submit_fraction: float,
                 cancel_fraction: float,
                 spec_factory: Callable[[random.Random], dict]) -> None:
        self.rng = rng
        self.tally = tally
        self.submit_fraction = submit_fraction
        self.cancel_fraction = cancel_fraction
        self.spec_factory = spec_factory
        #: Ids this user's submissions were answered 201 for.
        self.ids: list[str] = []

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


class StormStats:
    """Aggregate meters across every logical client."""

    __slots__ = ("submitted", "queried", "cancelled", "errors",
                 "reconnects", "rejected", "query_latencies",
                 "submit_latencies")

    def __init__(self) -> None:
        self.submitted = 0
        self.queried = 0
        self.cancelled = 0
        self.errors = 0
        self.reconnects = 0
        self.rejected = 0
        self.query_latencies: list[float] = []
        self.submit_latencies: list[float] = []

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "queried": self.queried,
            "cancelled": self.cancelled,
            "errors": self.errors,
            "reconnects": self.reconnects,
            "rejected": self.rejected,
        }


class _Client:
    """One logical user: a connection, a decoder, one in-flight request."""

    __slots__ = ("mix", "sock", "decoder", "connected", "outbuf",
                 "inflight", "served", "retry_at", "want_write")

    def __init__(self, mix: UserMix) -> None:
        self.mix = mix
        self.sock: Optional[socket.socket] = None
        self.decoder = HttpResponseDecoder()
        self.connected = False
        self.outbuf = b""
        #: (kind, t0) of the request awaiting its response.
        self.inflight: Optional[tuple[str, float]] = None
        self.served = 0  # requests completed on this connection (churn)
        self.retry_at = 0.0
        self.want_write = False


class GatewayStorm:
    """Pumpable storm of ``clients`` concurrent gateway users.

    Call :meth:`step` from the harness loop (or :meth:`run_for` to pump
    flat out); stats accumulate in :attr:`stats` and every accepted job
    id lands in :attr:`accepted`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        clients: int = 200,
        seed: int = 0,
        submit_fraction: float = 0.5,
        cancel_fraction: float = 0.1,
        churn_every: int = 0,
        spec_factory: Callable[[random.Random], dict] = _default_spec,
    ) -> None:
        self.host = host
        self.port = int(port)
        #: Close and reopen a connection after this many responses
        #: (0 = no churn): models users coming and going.
        self.churn_every = churn_every
        self.stats = StormStats()
        self.accepted: list[str] = []
        self._sel = selectors.DefaultSelector()
        self._clients = [
            _Client(UserMix(random.Random(f"{seed}:{i}"), self.stats,
                            submit_fraction, cancel_fraction, spec_factory))
            for i in range(clients)
        ]
        self._closed = False
        self._quiescing = False

    # -- connection lifecycle -------------------------------------------------
    def _open(self, client: _Client) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        try:
            err = sock.connect_ex((self.host, self.port))
        except OSError as exc:
            err = exc.errno or errno.EINVAL
        if err != 0 and err not in _INPROGRESS:
            sock.close()
            self._fail(client)
            return
        client.sock = sock
        client.decoder = HttpResponseDecoder()
        client.connected = err == 0
        client.served = 0
        client.want_write = True
        self._sel.register(sock, selectors.EVENT_READ | selectors.EVENT_WRITE,
                           client)
        if client.connected:
            self._issue(client)

    def _teardown(self, client: _Client) -> None:
        if client.sock is not None:
            try:
                self._sel.unregister(client.sock)
            except (KeyError, ValueError):
                pass
            try:
                client.sock.close()
            except OSError:
                pass
        client.sock = None
        client.connected = False
        client.outbuf = b""
        client.inflight = None

    def _fail(self, client: _Client) -> None:
        """Connection died (gateway down or restarting): back off and
        let :meth:`step` reconnect. An unanswered request counts as an
        error — and an unanswered submit is *not* an accepted job."""
        if client.inflight is not None:
            self.stats.errors += 1
        self._teardown(client)
        self.stats.reconnects += 1
        client.retry_at = time.monotonic() + RECONNECT_DELAY

    # -- request generation ---------------------------------------------------
    def _issue(self, client: _Client) -> None:
        """Frame the mix's next request as HTTP/1.1 and start writing."""
        kind, method, path, spec = client.mix.next_request()
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
        if spec is not None:
            body = json.dumps(spec).encode("utf-8")
            head += "Content-Type: application/json\r\n"
        else:
            body = b""
        if method == "POST":
            head += f"Content-Length: {len(body)}\r\n"
        client.inflight = (kind, time.monotonic())
        client.outbuf += (head + "\r\n").encode("latin-1") + body
        self._write(client)

    # -- I/O ------------------------------------------------------------------
    def _arm(self, client: _Client, want_write: bool) -> None:
        if client.sock is None or client.want_write == want_write:
            return
        client.want_write = want_write
        events = selectors.EVENT_READ
        if want_write:
            events |= selectors.EVENT_WRITE
        self._sel.modify(client.sock, events, client)

    def _write(self, client: _Client) -> None:
        sock = client.sock
        while client.outbuf:
            try:
                sent = sock.send(client.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._fail(client)
                return
            client.outbuf = client.outbuf[sent:]
        self._arm(client, bool(client.outbuf))

    def _read(self, client: _Client) -> None:
        try:
            data = client.sock.recv(262144)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._fail(client)
            return
        if not data:
            self._fail(client)
            return
        client.decoder.feed(data)
        while client.inflight is not None:
            try:
                response = client.decoder.next_response()
            except HttpError:
                self._fail(client)
                return
            if response is None:
                return
            self._finish(client, *response)

    def _finish(self, client: _Client, status: int, headers: dict,
                body: bytes) -> None:
        kind, t0 = client.inflight
        client.inflight = None
        elapsed_ms = (time.monotonic() - t0) * 1000.0
        doc = None
        if kind == "submit":  # the one body the mix reads
            try:
                doc = json.loads(body)
            except ValueError:
                pass
        outcome = client.mix.outcome(kind, status, doc)
        if outcome == "submitted":
            self.stats.submit_latencies.append(elapsed_ms)
            self.accepted.append(client.mix.ids[-1])
        elif outcome == "queried":
            self.stats.query_latencies.append(elapsed_ms)
        client.served += 1
        if self._quiescing:
            self._teardown(client)
            return
        if headers.get("connection", "").lower() == "close":
            self._teardown(client)
            client.retry_at = 0.0
            return
        if self.churn_every and client.served >= self.churn_every:
            # Voluntary churn: this user leaves; a fresh one takes the
            # slot on the next step.
            self._teardown(client)
            self.stats.reconnects += 1
            client.retry_at = 0.0
            return
        self._issue(client)

    # -- pumping --------------------------------------------------------------
    def step(self, timeout: float = 0.0) -> None:
        """One poll turn: reconnect due clients, then service readiness."""
        if self._closed:
            return
        now = time.monotonic()
        if not self._quiescing:
            for client in self._clients:
                if client.sock is None and now >= client.retry_at:
                    self._open(client)
        for key, mask in self._sel.select(timeout):
            client: _Client = key.data
            if client.sock is None:
                continue
            if mask & selectors.EVENT_WRITE:
                if not client.connected:
                    err = client.sock.getsockopt(socket.SOL_SOCKET,
                                                 socket.SO_ERROR)
                    if err:
                        self._fail(client)
                        continue
                    client.connected = True
                    if client.inflight is None:
                        self._issue(client)
                self._write(client)
            if client.sock is not None and mask & selectors.EVENT_READ:
                self._read(client)

    def run_for(self, seconds: float, poll: float = 0.05) -> None:
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            self.step(poll)

    def quiesce(self, grace: float = 2.0) -> None:
        """Stop issuing new requests; drain in-flight responses."""
        deadline = time.monotonic() + grace
        self._quiescing = True
        while (any(c.inflight is not None for c in self._clients)
               and time.monotonic() < deadline):
            self.step(0.02)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for client in self._clients:
            self._teardown(client)
        self._sel.close()

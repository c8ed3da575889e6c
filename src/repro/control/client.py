"""The gateway's HTTP client on real sockets.

:class:`HttpSocket`, the one client socket transport, carries an
:class:`~repro.control.http.HttpClientConnection` on a non-blocking
socket: a :class:`~repro.control.loadgen.GatewayStorm` runs N on one
selector, the blocking :class:`GatewayClient` (tests, harness sweeps,
tools, :class:`~repro.explore.queue.ExploreQueue`) one until its answer
arrives. It reopens its connection when the gateway restarts, but sends
a request again only if the cached connection was found closed before
the write, or if it is a ``GET``: a written ``POST`` that got no answer
may have been accepted, and raises :class:`~repro.control.http.HttpError`.
"""

from __future__ import annotations

import errno
import json
import os
import selectors
import socket
import time
from typing import Optional

from ..obs.events import parse_jsonl
from .http import HttpClientConnection, HttpError

__all__ = ["GatewayClient", "HttpSocket"]

_INPROGRESS = {errno.EINPROGRESS, errno.EWOULDBLOCK, errno.EALREADY}
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


class HttpSocket:
    """An :class:`HttpClientConnection` carrying ``conversation`` on a
    non-blocking socket to ``address``, registered with ``selector``
    under ``data``. A failure raises (``OSError``, or :class:`HttpError`
    for a corrupt answer); what it means is the owner's call."""

    __slots__ = ("http", "conversation", "sock", "selector", "data", "out",
                 "connected", "sent_at", "answered", "want_write")

    def __init__(self, address: tuple[str, int], conversation, selector,
                 data=None) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            err = sock.connect_ex(address)
            if err != 0 and err not in _INPROGRESS:
                raise OSError(err, os.strerror(err))
        except OSError:  # refused at once, or no such host
            sock.close()
            raise
        self.http = HttpClientConnection(address[0])
        self.conversation, self.data = conversation, data
        self.sock, self.selector, self.out = sock, selector, b""
        self.connected = err == 0
        #: When the request in flight was written; answers so far.
        self.sent_at, self.answered = 0.0, 0
        self.want_write = True
        selector.register(sock, _READ | _WRITE, data)

    def send(self, now: float) -> None:
        """Frame the conversation's next request and start writing it."""
        frame = self.http.request(self.conversation)
        if frame is not None:
            self.out += frame
            self.sent_at = now
            if self.connected:
                self._write()

    def _write(self) -> None:
        while self.out:
            try:
                sent = self.sock.send(self.out)
            except (BlockingIOError, InterruptedError):
                break
            self.out = self.out[sent:]
        if self.want_write != bool(self.out):
            self.want_write = bool(self.out)
            self.selector.modify(self.sock, _READ | (
                _WRITE if self.want_write else 0), self.data)

    def ready(self, mask: int, rbuf: memoryview, now: float):
        """Serve one readiness event (a finished connect sends the first
        request if none is in flight); returns what
        :meth:`HttpClientConnection.receive` returns."""
        if mask & _WRITE:
            if not self.connected:
                err = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                if err:
                    raise OSError(err, os.strerror(err))
                self.connected = True
                if self.http.inflight is None:
                    self.send(now)
            self._write()
        if not mask & _READ:
            return None
        try:
            n = self.sock.recv_into(rbuf)
        except (BlockingIOError, InterruptedError):
            return None
        if not n:
            raise ConnectionResetError("the gateway closed the connection")
        got = self.http.receive(rbuf[:n], now)
        self.answered += got is not None
        return got

    def close(self) -> None:
        self.selector.unregister(self.sock)
        self.sock.close()


class GatewayClient:
    """Synchronous job-management client for one gateway contact, and
    the conversation its :class:`HttpSocket` carries: the call in hand."""

    def __init__(self, contact: str, timeout: float = 5.0) -> None:
        host, _, port = contact.rpartition(":")
        if not host or not port:
            raise ValueError(f"malformed gateway contact {contact!r}")
        self.host, self.port, self.timeout = host, int(port), timeout
        self._selector = selectors.DefaultSelector()
        self._rbuf = memoryview(bytearray(65536))
        self._link: Optional[HttpSocket] = None
        #: The call in hand, and its answer.
        self._call: Optional[tuple] = None
        self._reply: Optional[tuple[int, bytes]] = None

    def next_request(self) -> Optional[tuple]:
        return self._call

    def answer(self, kind: str, status: int, body: bytes, now: float) -> None:
        self._reply = (status, body)

    def close(self) -> None:
        """Close the cached connection (the next call opens a new one)."""
        if self._link is not None:
            self._link.close()
            self._link = None

    def _exchange(self) -> tuple[int, bytes]:
        """The call's answer, on the cached connection or a fresh one."""
        if self._link is None:
            self._link = HttpSocket((self.host, self.port), self,
                                    self._selector)
        link = self._link
        link.send(0.0)
        deadline = time.monotonic() + self.timeout
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"no answer in {self.timeout:g} s")
            for _, mask in self._selector.select(left):
                got = link.ready(mask, self._rbuf, 0.0)
                if got is not None:
                    if got[1]:  # a closing answer
                        self.close()
                    return self._reply

    def request_raw(self, method: str, path: str,
                    doc: Optional[dict] = None) -> tuple[int, bytes]:
        """One request/response, the body unparsed. Raises
        :class:`HttpError` when the gateway is unreachable or did not
        answer; its cause is a ``ConnectionRefusedError`` only if the
        first try was refused, so nothing was sent."""
        self._call = ("call", method, path, doc)
        resend = method == "GET"
        first: Optional[BaseException] = None
        while True:
            if self._link is not None and self._selector.select(0):
                # Readable while idle: the gateway closed it. Nothing was
                # written on it, so this is no second send.
                first = first or ConnectionResetError(
                    "the cached connection was closed")
                self.close()
            try:
                return self._exchange()
            except (OSError, HttpError) as exc:
                self.close()
                first = first or exc
                if not resend:
                    raise HttpError(f"gateway {self.host}:{self.port} "
                                    f"unreachable: {exc}") from first
                resend = False

    def request(self, method: str, path: str,
                obj: Optional[dict] = None) -> tuple[int, dict]:
        """:meth:`request_raw` with the body parsed as JSON (else
        :class:`HttpError`)."""
        status, payload = self.request_raw(method, path, obj)
        try:
            doc = json.loads(payload) if payload else {}
        except ValueError as exc:
            raise HttpError(f"non-JSON gateway response: {exc}") from exc
        return status, doc if isinstance(doc, dict) else {}

    def _expect(self, want: int, what: str, method: str, path: str,
                obj: Optional[dict] = None) -> dict:
        status, doc = self.request(method, path, obj)
        if status != want:
            raise HttpError(f"{what} rejected ({status}): {doc}")
        return doc

    def submit(self, spec: dict) -> dict:
        """Submit one job; returns the acceptance record (raises on 4xx)."""
        return self._expect(201, "submit", "POST", "/jobs", spec)

    def submit_batch(self, specs: list[dict]) -> list[str]:
        """Submit N jobs in one request (one journal flush gateway-side);
        returns all assigned ids, in spec order. Raises on 4xx — the
        batch is atomic, so a rejection means nothing was accepted."""
        doc = self._expect(201, "batch submit", "POST", "/jobs/batch",
                           {"specs": list(specs)})
        return [str(job_id) for job_id in doc.get("ids", [])]

    def job(self, job_id: str) -> Optional[dict]:
        """Full job record, or None if the gateway does not know the id."""
        status, doc = self.request("GET", f"/jobs/{job_id}")
        return doc if status == 200 else None

    def cancel(self, job_id: str) -> tuple[int, dict]:
        return self.request("POST", f"/jobs/{job_id}/cancel")

    def queue(self) -> dict:
        return self.request("GET", "/queue")[1]

    def health(self) -> dict:
        return self.request("GET", "/health")[1]

    def _text(self, path: str) -> str:
        status, payload = self.request_raw("GET", path)
        if status != 200:
            raise HttpError(f"GET {path} failed ({status})")
        return payload.decode("utf-8")

    def metrics_text(self) -> str:
        """Scrape /metrics: raw Prometheus text exposition."""
        return self._text("/metrics")

    def events(self, since: int = -1, limit: int = 500) -> list[dict]:
        """Read the job-lifecycle feed after ``since``, without waiting
        (the ME pump is the long-polling reader)."""
        return parse_jsonl(self._text(
            f"/events?since={int(since)}&limit={int(limit)}"))

    def publish_sites(self, sites: dict) -> dict:
        """Push per-site utilisation gauges (the serve harness's)."""
        return self._expect(200, "site publish", "POST", "/telemetry/sites",
                            {"sites": sites})

    def publish_gossip(self, rollup: dict) -> dict:
        """Push a pool-wide gossip sync-plane rollup (see
        :func:`repro.experiments.bigpool.gossip_rollup`)."""
        return self._expect(200, "gossip publish", "POST",
                            "/telemetry/gossip", {"gossip": rollup})

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

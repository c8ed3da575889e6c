"""Benchmark-owned closed-loop HTTP load generator.

One thread, one selector, a few keep-alive connections, each holding a
fixed window of pipelined requests; request bytes are pre-rendered and
the only product code used is ``HttpResponseDecoder`` for framing. The
instrument therefore stays the same when ``repro.control.loadgen`` or
``GatewayClient`` change.

Closed loop: a connection starts its next flow only when one of its
``window`` flows finishes, so a slower gateway receives less load and
the offered concurrency is exactly ``connections * window``.

A *flow* is a short request script: ``start()`` gives the first request,
``on_response(status, body, sent_at, now)`` gives the next one or None
when the flow is over. HTTP/1.1 answers pipelined requests in order, so
a per-connection FIFO pairs responses with requests.
"""

from __future__ import annotations

import json
import selectors
import socket
from collections import deque
from time import perf_counter, process_time
from typing import Iterable, Iterator, Optional

from repro.control.http import HttpResponseDecoder

__all__ = ["LoadGen", "SubmitFlow", "ReadFlow", "StormLog", "LoadGenError",
           "get_json"]

#: The generator must not be the bottleneck: above this share of one
#: core the run is measuring the instrument, and fails.
MAX_CPU_FRAC = 0.6
#: No response for this long means the gateway is gone.
STALL_SECONDS = 30.0


class LoadGenError(RuntimeError):
    pass


class StormLog:
    """What the flows of one storm observed (times in seconds)."""

    def __init__(self) -> None:
        self.submit_s: list[float] = []   # POST written -> 201 parsed
        self.job_s: list[float] = []      # POST written -> `done` observed
        self.done_at: list[float] = []    # completion instants (for decay)
        self.ids: list[str] = []          # every accepted id
        self.gets = 0
        self.failed = 0


class SubmitFlow:
    """``POST /jobs`` then ``GET /jobs/{id}`` until the job is done."""

    __slots__ = ("post", "log", "posted_at")

    def __init__(self, post: bytes, log: StormLog) -> None:
        self.post = post
        self.log = log
        self.posted_at = 0.0

    def start(self) -> bytes:
        return self.post

    def on_response(self, status: int, body: bytes, sent_at: float,
                    now: float) -> Optional[bytes]:
        log = self.log
        if self.posted_at == 0.0:
            if status != 201:
                log.failed += 1
                return None
            self.posted_at = sent_at
            job_id = json.loads(body)["id"]
            log.submit_s.append(now - sent_at)
            log.ids.append(job_id)
            self.post = b"GET /jobs/%s HTTP/1.1\r\nHost: e2e\r\n\r\n" % (
                job_id.encode("ascii"))
            return self.post
        log.gets += 1
        if status != 200:
            log.failed += 1
            return None
        if json.loads(body)["state"] != "done":
            return self.post  # poll again
        log.job_s.append(now - self.posted_at)
        log.done_at.append(now)
        return None


class ReadFlow:
    """One ``GET /jobs/{id}`` that must find the job ``done``."""

    __slots__ = ("job_id", "log")

    def __init__(self, job_id: str, log: StormLog) -> None:
        self.job_id = job_id
        self.log = log

    def start(self) -> bytes:
        return b"GET /jobs/%s HTTP/1.1\r\nHost: e2e\r\n\r\n" % (
            self.job_id.encode("ascii"))

    def on_response(self, status: int, body: bytes, sent_at: float,
                    now: float) -> Optional[bytes]:
        self.log.gets += 1
        if status != 200 or json.loads(body)["state"] != "done":
            self.log.failed += 1
        return None


class _Conn:
    __slots__ = ("sock", "decoder", "pending", "out", "unsent", "flows",
                 "want_write")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = HttpResponseDecoder()
        #: In-flight requests, oldest first: [flow, sent_at].
        self.pending: deque = deque()
        self.out = bytearray()
        #: Entries of ``pending`` whose bytes have not been handed to the
        #: kernel yet (their sent_at is stamped at the send call).
        self.unsent: list = []
        self.flows = 0
        self.want_write = False


class LoadGen:
    """See module docstring."""

    def __init__(self, port: int, connections: int, window: int) -> None:
        self.window = window
        self.sel = selectors.DefaultSelector()
        self.conns: list[_Conn] = []
        for _ in range(connections):
            sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Conn(sock)
            self.sel.register(sock, selectors.EVENT_READ, conn)
            self.conns.append(conn)
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @property
    def cpu_frac(self) -> float:
        return self.cpu_s / self.wall_s if self.wall_s else 0.0

    def close(self) -> None:
        for conn in self.conns:
            self.sel.unregister(conn.sock)
            conn.sock.close()
        self.conns = []
        self.sel.close()

    # -- the loop ------------------------------------------------------------
    def _queue(self, conn: _Conn, flow, request: bytes) -> None:
        entry = [flow, 0.0]
        conn.pending.append(entry)
        conn.unsent.append(entry)
        conn.out += request

    def _flush(self, conn: _Conn) -> None:
        if not conn.out:
            return
        now = perf_counter()
        for entry in conn.unsent:
            entry[1] = now
        conn.unsent.clear()
        try:
            sent = conn.sock.send(conn.out)
        except (BlockingIOError, InterruptedError):
            sent = 0
        del conn.out[:sent]
        if bool(conn.out) != conn.want_write:
            conn.want_write = bool(conn.out)
            self.sel.modify(conn.sock, selectors.EVENT_READ | (
                selectors.EVENT_WRITE if conn.want_write else 0), conn)

    def _refill(self, conn: _Conn, flows: Iterator) -> None:
        while conn.flows < self.window:
            flow = next(flows, None)
            if flow is None:
                return
            conn.flows += 1
            self._queue(conn, flow, flow.start())

    def run(self, flows: Iterable) -> None:
        """Drive every flow to its end, ``window`` at a time per
        connection. Adds to :attr:`wall_s` / :attr:`cpu_s`."""
        flows = iter(flows)
        t0, c0 = perf_counter(), process_time()
        for conn in self.conns:
            self._refill(conn, flows)
            self._flush(conn)
        while any(conn.flows for conn in self.conns):
            ready = self.sel.select(STALL_SECONDS)
            if not ready:
                raise LoadGenError(
                    f"no response for {STALL_SECONDS:.0f}s: gateway stalled")
            for key, mask in ready:
                conn = key.data
                if mask & selectors.EVENT_READ:
                    try:
                        data = conn.sock.recv(262144)
                    except (BlockingIOError, InterruptedError):
                        data = None
                    if data == b"":
                        raise LoadGenError("gateway closed a connection")
                    if data:
                        self._on_data(conn, data, flows)
                self._flush(conn)
        self.wall_s += perf_counter() - t0
        self.cpu_s += process_time() - c0

    def _on_data(self, conn: _Conn, data: bytes, flows: Iterator) -> None:
        decoder = conn.decoder
        decoder.feed(data)
        while True:
            response = decoder.next_response()
            if response is None:
                break
            status, _headers, body = response
            flow, sent_at = conn.pending.popleft()
            request = flow.on_response(status, body, sent_at, perf_counter())
            if request is not None:
                self._queue(conn, flow, request)
            else:
                conn.flows -= 1
        self._refill(conn, flows)


def get_json(port: int, path: str, timeout: float = 5.0) -> tuple[int, dict]:
    """One blocking GET on a fresh connection (health, stats)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(b"GET %s HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\r\n"
                     % path.encode("ascii"))
        decoder = HttpResponseDecoder(max_body=64 * 1024 * 1024)
        while True:
            response = decoder.next_response()
            if response is not None:
                status, _headers, body = response
                return status, json.loads(body)
            data = sock.recv(262144)
            if not data:
                raise LoadGenError(f"connection closed before {path} answered")
            decoder.feed(data)

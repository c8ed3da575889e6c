"""One gateway, two transports: the same bytes get the same answers.

One scripted exchange runs against the twin's gateway, written by
simulated peers as segments, and against a gateway node's HTTP socket in
this process: a long-poll with a ``/health`` pipelined behind it while
it is parked, a
``POST /jobs`` torn across three writes, a malformed request line and a
``Connection: close`` request. Each connection must get the same
``(status, body)`` answers in the same order on both planes, its bodies
compared without their clock readings, and close at the same point.
"""

import json
import time

from repro.control import HttpResponseDecoder
from repro.control.sim import TwinWorld
from repro.core.component import Component, Send, SetTimer, segment
from tests.live.test_node import LiveGateway

CLOSED = "closed"
#: Fields that read a clock: simulated seconds on the twin, wall live.
CLOCK_FIELDS = ("uptime", "submitted_at", "finished_at", "t")

#: ``(seconds, connection, bytes)``; both planes name the first job
#: ``gw0-job-1``.
SCRIPT = [
    (0.0, "a", b"GET /events?since=-1&wait=1 HTTP/1.1\r\nHost: t\r\n\r\n"),
    (0.2, "a", b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n"),
    (1.4, "a", b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Le"),
    (1.5, "a", b'ngth: 23\r\n\r\n{"kind": '),
    (1.6, "a", b'"bench.inert"}'),
    (1.8, "b", b"GET /health extra HTTP/1.1\r\n\r\n"),
    (2.0, "a", b"GET /jobs/gw0-job-1 HTTP/1.1\r\nHost: t\r\n"
               b"Connection: close\r\n\r\n"),
]


def _answers(chunks: list) -> list:
    """The ``(status, body)`` answers in a connection's bytes, bodies
    without clock readings, then :data:`CLOSED` if it closed."""
    decoder = HttpResponseDecoder()
    out = []
    for chunk in chunks:
        if chunk is CLOSED:
            out.append(CLOSED)
            continue
        decoder.feed(chunk)
        for status, _headers, body in iter(decoder.next_response, None):
            doc = json.loads(body) if body else None
            if isinstance(doc, dict):
                doc = {key: value for key, value in doc.items()
                       if key not in CLOCK_FIELDS}
            out.append((status, doc))
    return out


class _Peer(Component):
    """One scripted connection on the twin."""

    def __init__(self, name, script):
        super().__init__(name)
        self.script = script
        self.chunks = []

    def on_start(self, now):
        return [SetTimer(str(i), t) for i, (t, _) in enumerate(self.script)]

    def on_timer(self, key, now):
        return [Send(TwinWorld.CONTACT,
                     segment(self.contact, self.script[int(key)][1]))]

    def on_message(self, message, now):
        self.chunks.append(message.body["d"])
        if message.body.get("fin"):
            self.chunks.append(CLOSED)
        return []


def _twin() -> dict:
    world = TwinWorld(seed=3, restart_after=None, telemetry=None)
    peers = {}
    for name in sorted({conn for _, conn, _ in SCRIPT}):
        peers[name] = _Peer(name, [(t, data) for t, conn, data in SCRIPT
                                   if conn == name])
        world.add(name, "usr", peers[name])
    world.env.run(until=5.0)
    return {name: _answers(peer.chunks) for name, peer in peers.items()}


def _live() -> dict:
    gateway = LiveGateway()
    socks, chunks = {}, {}
    try:
        t0, script = time.monotonic(), list(SCRIPT)
        while time.monotonic() - t0 < 4.0:
            gateway.driver.step(0.002)
            while script and time.monotonic() - t0 >= script[0][0]:
                _, conn, data = script.pop(0)
                if conn not in socks:
                    socks[conn] = gateway.connect()
                    chunks[conn] = []
                socks[conn].sendall(data)
            for conn, sock in socks.items():
                if chunks[conn][-1:] == [CLOSED]:
                    continue
                try:
                    data = sock.recv(65536)
                except BlockingIOError:
                    continue
                chunks[conn].append(data or CLOSED)
    finally:
        for sock in socks.values():
            sock.close()
        gateway.close()
    return {conn: _answers(got) for conn, got in chunks.items()}


def test_the_twin_and_a_live_node_answer_one_script_alike():
    twin = _twin()
    assert twin == {
        "a": [(200, None),                           # the long-poll, first
              (200, {"ok": True, "node": "gw0", "requests": 1,
                     "rejected": 0,
                     "jobs": {"queued": 0, "assigned": 0, "done": 0,
                              "cancelled": 0, "total": 0}}),
              (201, {"id": "gw0-job-1", "state": "queued"}),
              (200, {"id": "gw0-job-1", "state": "queued",
                     "spec": {"kind": "bench.inert"}, "result": None,
                     "requeues": 0}),
              CLOSED],
        "b": [(400, {"error": "malformed request line"}), CLOSED],
    }
    assert _live() == twin

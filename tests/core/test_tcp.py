"""Tests for the real TCP transport (localhost, single machine).

The server reactor is pumped from a helper thread in the tests only; the
library itself stays single-threaded, per the paper's design rules.
"""

import socket
import threading
import time

import pytest

from repro.core.linguafranca.messages import Message, fresh_req_id
from repro.core.linguafranca.packets import PacketDecoder
from repro.core.linguafranca.tcp import AsyncSender, EventLoop, TcpServer


def request(host, port, message, timeout=5.0):
    """Blocking request, reply read off the same socket; None on time-out."""
    message.req_id = fresh_req_id()
    decoder = PacketDecoder()
    deadline = time.monotonic() + timeout
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(message.encode())
        while (remaining := deadline - time.monotonic()) > 0:
            sock.settimeout(remaining)
            try:
                data = sock.recv(65536)
            except socket.timeout:
                return None
            if not data:
                return None
            decoder.feed(data)
            while (reply := decoder.next_record(Message.from_parts)):
                if reply.reply_to == message.req_id:
                    return reply
    return None


class ServerThread:
    """Pump a TcpServer reactor until stopped."""

    def __init__(self, server):
        self.server = server
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            self.server.step(0.02)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self.thread.join(timeout=2)
        self.server.close()


def echo_handler(message):
    if message.mtype == "PING":
        return message.reply("PONG", sender="", body={"echo": message.body})
    if message.mtype == "PUSH":
        return None  # fire-and-forget
    return message.reply("ERROR", sender="", body={"unknown": message.mtype})


def test_request_reply_over_tcp():
    server = TcpServer("127.0.0.1", 0, echo_handler)
    host, port = server.address
    with ServerThread(server):
        reply = request(host, port, Message(mtype="PING", sender="tester",
                                            body={"n": 5}))
        assert reply is not None
        assert reply.mtype == "PONG"
        assert reply.body == {"echo": {"n": 5}}


def test_fire_and_forget_over_tcp():
    got = []

    def handler(message):
        got.append(message.mtype)
        return None

    server = TcpServer("127.0.0.1", 0, handler)
    host, port = server.address
    with ServerThread(server):
        with socket.create_connection((host, port)) as sock:
            sock.sendall(Message(mtype="PUSH", sender="").encode())
        deadline = time.monotonic() + 2
        while not got and time.monotonic() < deadline:
            time.sleep(0.01)
    assert got == ["PUSH"]


def test_unknown_type_gets_error_reply():
    server = TcpServer("127.0.0.1", 0, echo_handler)
    host, port = server.address
    with ServerThread(server):
        reply = request(host, port, Message(mtype="WAT", sender=""))
        assert reply.mtype == "ERROR"


def test_request_timeout_when_handler_never_replies():
    server = TcpServer("127.0.0.1", 0, lambda m: None)
    host, port = server.address
    with ServerThread(server):
        reply = request(host, port, Message(mtype="PING", sender=""),
                        timeout=0.3)
        assert reply is None


def test_many_sequential_requests_one_server():
    server = TcpServer("127.0.0.1", 0, echo_handler)
    host, port = server.address
    with ServerThread(server):
        for i in range(20):
            reply = request(host, port, Message(mtype="PING", sender="",
                                                body={"i": i}))
            assert reply.body["echo"]["i"] == i
    assert server.messages_handled == 20


def test_server_survives_garbage_connection():
    server = TcpServer("127.0.0.1", 0, echo_handler)
    host, port = server.address
    with ServerThread(server):
        with socket.create_connection((host, port)) as s:
            s.sendall(b"this is not a packet at all" * 10)
        time.sleep(0.1)
        # Server must still answer real clients.
        reply = request(host, port, Message(mtype="PING", sender=""))
        assert reply.mtype == "PONG"
    assert server.decode_errors >= 1


@pytest.mark.parametrize("step", [5, 1500, 65536])
def test_packets_split_across_many_reads_decode_the_same(step):
    # Two connections' frames reach the server's one reused read buffer
    # in pieces, interleaved; each frame must decode as if sent whole.
    server = TcpServer("127.0.0.1", 0, echo_handler)
    big = "x" * (300 * 1024) if step > 5 else "x" * 3000
    bodies = [[{"i": 0}, {"big": big}, {"i": 2, "s": "é" * 50}],
              [{"i": 3, "big": big[:999]}, {"i": 4}]]
    streams = []
    for conn in bodies:
        frames = []
        for body in conn:
            message = Message(mtype="PING", sender="", body=body)
            message.req_id = fresh_req_id()
            frames.append(message.encode())
        streams.append(b"".join(frames))
    socks = [socket.create_connection(server.address) for _ in streams]
    decoders = [PacketDecoder() for _ in streams]
    got = [[] for _ in streams]
    try:
        for sock in socks:
            nodelay_on(sock)
            sock.setblocking(False)
        at, deadline = 0, time.monotonic() + 20
        while sum(map(len, got)) < sum(map(len, bodies)):
            assert time.monotonic() < deadline, got
            for sock, stream in zip(socks, streams):
                if at < len(stream):
                    sock.sendall(stream[at:at + step])
            at += step
            server.step(0.001)
            for sock, decoder, out in zip(socks, decoders, got):
                try:
                    decoder.feed(sock.recv(1 << 20))
                except BlockingIOError:
                    continue
                out += iter(lambda: decoder.next_record(Message.from_parts),
                            None)
    finally:
        for sock in socks:
            sock.close()
        server.close()
    assert [[reply.body["echo"] for reply in out] for out in got] == bodies
    assert server.decode_errors == 0


# -- AsyncSender: one connection per peer, once-per-failure reconnect ---------


class AcceptCounter:
    """Wrap a server's accept path to count inbound connections."""

    def __init__(self, server):
        self.count = 0
        self._orig = server._accept

        def counting():
            accepted = self._orig()
            self.count += accepted
            return accepted

        server._accept = counting


def nodelay_on(sock):
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


class Wire:
    """A frame-collecting ``TcpServer`` and an ``AsyncSender`` on one
    loop, pumped by the test (single-threaded, like a node)."""

    def __init__(self):
        self.loop = EventLoop()
        self.got = []
        self.listen()
        self.sender = AsyncSender(self.loop, sender="tester")

    def listen(self, port=0):
        self.server = TcpServer("127.0.0.1", port, self.got.append,
                                loop=self.loop)
        self.key = self.server.address

    def push(self, i):
        self.sender.post(*self.key, Message(mtype="PUSH", sender="",
                                            body={"i": i}))

    def pump(self, condition, budget=5.0):
        deadline = time.monotonic() + budget
        while not condition() and time.monotonic() < deadline:
            self.loop.step(0.01)
            self.sender.service()
        assert condition(), "condition not reached while pumping the loop"

    def peer(self):
        return self.sender._peers.get(self.key)

    def close(self):
        self.sender.close()
        self.loop.close()  # closes every socket still registered


@pytest.fixture
def wire():
    wire = Wire()
    yield wire
    wire.close()


def test_send_reuses_one_connection_per_peer(wire):
    accepts = AcceptCounter(wire.server)
    for i in range(8):
        wire.push(i)
        wire.pump(lambda: len(wire.got) == i + 1)
    assert accepts.count == 1 and wire.sender.reconnects == 0
    assert [m.body["i"] for m in wire.got] == list(range(8))


def test_send_transparently_reconnects_after_peer_restart(wire):
    """The peer restarts on the same port while frames are queued for it:
    one reconnect, delivery in order, and a Nagle-free fresh socket."""
    wire.push(1)
    wire.pump(lambda: len(wire.got) == 1)
    stale = wire.peer().sock
    wire.server.close()  # the peer dies; the cached connection is stale
    wire.listen(wire.key[1])  # ...and comes back on the same port
    wire.push(2)
    wire.push(3)
    wire.pump(lambda: len(wire.got) == 3)
    assert [m.body["i"] for m in wire.got] == [1, 2, 3]
    assert wire.sender.reconnects == 1 and wire.sender.errors == 0
    assert wire.peer().sock is not stale and nodelay_on(wire.peer().sock)


def test_second_failure_counts_the_frame_as_an_error(wire):
    wire.push(1)
    wire.pump(lambda: len(wire.got) == 1)
    wire.server.close()  # nobody listens any more: the reconnect fails too
    wire.push(2)
    wire.pump(lambda: wire.sender.errors == 1)
    assert wire.sender.reconnects == 1 and wire.peer() is None
    assert [m.body["i"] for m in wire.got] == [1]


def test_idle_stale_entry_is_forgotten(wire):
    wire.push(1)
    wire.pump(lambda: len(wire.got) == 1)
    (conn,) = wire.server._conns
    wire.server._drop(conn)  # the peer hangs up on an idle connection
    wire.pump(lambda: wire.peer() is None)
    assert wire.sender.reconnects == 0 and wire.sender.errors == 0
    wire.push(2)  # the next post simply connects afresh
    wire.pump(lambda: len(wire.got) == 2)


def test_close_drops_cached_connections(wire):
    wire.push(0)
    wire.pump(lambda: wire.sender.sent == 1)
    assert wire.sender._peers
    wire.sender.close()
    assert not wire.sender._peers

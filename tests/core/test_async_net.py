"""Async transport guarantees: zero-copy reads, Nagle-free sockets,
send coalescing, and the benchmark harness.

Covers the live-plane contracts the async rewrite introduced:

* inbound payloads are parsed **in place** — every record's payload view
  aliases the connection's stream buffer, no per-packet bytes objects;
* frames survive arbitrary split points, including mid-header and
  mid-trailer, across many reactor turns;
* every socket in the stack (accepted and async-sender) runs with
  TCP_NODELAY, and small request/response exchanges don't hit
  Nagle-vs-delayed-ACK stalls;
* a burst of posts to one peer flushes as batched ``sendmsg`` calls,
  not one syscall per frame;
* the transport benchmark's cells (``benchmarks/bench_net.py``) run.
"""

import pathlib
import socket
import statistics
import sys
import threading
import time

from repro.core.linguafranca.messages import Message
from repro.core.linguafranca.tcp import TcpServer

from tests.core.test_tcp import Wire, nodelay_on, request


def _pump(server, condition, budget=5.0, step=0.02):
    """Step the server's reactor until ``condition()`` or the budget is
    spent (single-threaded: tests pump, the library never does)."""
    deadline = time.monotonic() + budget
    while not condition() and time.monotonic() < deadline:
        server.step(step)
    assert condition(), "condition not reached while pumping the reactor"


# -- zero-copy reads ----------------------------------------------------------


def test_payload_views_alias_the_stream_buffer():
    seen = []

    def raw(mtype, payload):
        # Record the buffer object backing the view, and the content
        # (copied only for the assertion, inside the view's lifetime).
        seen.append((mtype, payload.obj, bytes(payload)))
        return b""

    server = TcpServer("127.0.0.1", 0, lambda m: None, raw_handler=raw)
    try:
        with socket.create_connection(server.address) as sock:
            for i in range(3):
                sock.sendall(Message(mtype="EVNT", sender="t",
                                     body={"i": i}).encode())
            _pump(server, lambda: len(seen) == 3)
        (conn,) = server._conns
        buffers = {id(obj) for _mtype, obj, _data in seen}
        # One connection, one stream buffer: every payload view aliased
        # the decoder's bytearray in place — no per-packet copies.
        assert buffers == {id(conn.decoder._buf)}
        for i, (mtype, obj, data) in enumerate(seen):
            assert mtype == "EVNT"
            assert isinstance(obj, bytearray)
            assert b'"i": %d' % i in data or b'"i":%d' % i in data
    finally:
        server.close()


def test_partial_reads_survive_frame_boundaries():
    got = []
    server = TcpServer("127.0.0.1", 0,
                       lambda m: got.append(m.body["n"]) or None)
    try:
        frames = b"".join(Message(mtype="PUSH", sender="t",
                                  body={"n": n}).encode()
                          for n in range(3))
        with socket.create_connection(server.address) as sock:
            # Dribble the stream in 7-byte slivers: splits land inside
            # headers, payloads, and crc trailers, across reactor turns.
            for off in range(0, len(frames), 7):
                sock.sendall(frames[off:off + 7])
                server.step(0.01)
            _pump(server, lambda: len(got) == 3)
        assert got == [0, 1, 2]
        assert server.decode_errors == 0
    finally:
        server.close()


# -- TCP_NODELAY everywhere (no Nagle stalls) ---------------------------------


def test_nodelay_set_on_all_new_stack_sockets():
    wire = Wire()
    try:
        wire.push(0)
        # The async sender's peer socket, from the moment it exists.
        assert nodelay_on(wire.peer().sock)
        wire.pump(lambda: wire.got)
        (conn,) = wire.server._conns  # the server's accepted socket
        assert nodelay_on(conn.sock)
    finally:
        wire.close()


def test_client_reconnect_path_keeps_nodelay():
    wire = Wire()
    try:
        wire.push(1)
        wire.pump(lambda: wire.got)
        # Kill the server side of the cached connection with a frame
        # queued: the sender reconnects transparently, and the fresh
        # socket must also be Nagle-free.
        (conn,) = wire.server._conns
        wire.server._drop(conn)
        wire.push(2)
        wire.pump(lambda: len(wire.got) == 2)
        assert wire.sender.reconnects == 1
        assert nodelay_on(wire.peer().sock)
    finally:
        wire.close()


def test_request_response_has_no_nagle_stalls():
    # Nagle vs delayed-ACK adds ~40ms per small exchange; with NODELAY a
    # loopback exchange is sub-millisecond. Use the median of many
    # exchanges so one scheduler hiccup can't fail the test, with a
    # bound an order of magnitude under the stall and an order over the
    # honest cost.
    server = TcpServer("127.0.0.1", 0,
                       lambda m: m.reply("PONG", sender=""))
    laps = []
    stop = threading.Event()

    def pump():  # test harness only: the library stays single-threaded
        while not stop.is_set():
            server.step(0.005)

    pumper = threading.Thread(target=pump, daemon=True)
    pumper.start()
    try:
        host, port = server.address
        for _ in range(30):
            t0 = time.monotonic()
            reply = request(host, port,
                            Message(mtype="PING", sender="t", body={}))
            laps.append(time.monotonic() - t0)
            assert reply is not None and reply.mtype == "PONG"
    finally:
        stop.set()
        pumper.join(timeout=2)
        server.close()
    assert statistics.median(laps) < 0.02, f"median {statistics.median(laps)}"


# -- send coalescing ----------------------------------------------------------


def test_burst_of_posts_flushes_batched():
    wire = Wire()
    try:
        for n in range(50):
            wire.push(n)
        wire.pump(lambda: len(wire.got) == 50)
        assert [m.body["i"] for m in wire.got] == list(range(50))
        assert wire.sender.sent == 50
        # Coalescing contract: the burst went out in batched sendmsg
        # calls, nowhere near one syscall per frame.
        assert wire.sender.flush_batches <= 4
    finally:
        wire.close()


# -- benchmark cells ----------------------------------------------------------


def _bench_net():
    benchmarks = str(pathlib.Path(__file__).resolve().parents[2]
                     / "benchmarks")
    if benchmarks not in sys.path:
        sys.path.insert(0, benchmarks)
    import bench_net

    return bench_net


def test_netbench_echo_cell_runs():
    row = _bench_net().run_echo(8, duration=0.4, warmup=0.1, pipeline=2,
                                payload=0)
    assert row["cell"] == "echo"
    assert row["msgs"] > 0
    assert row["msgs_per_s"] > 0
    assert row["p99_ms"] >= row["p50_ms"] >= 0


def test_netbench_fanout_cell_runs():
    row = _bench_net().run_fanout(peers=8, duration=0.4, warmup=0.1,
                                  payload=0, burst=4, window=256)
    assert row["cell"] == "fanout"
    assert row["msgs"] > 0
    assert row["sent"] >= row["msgs"]
    # Bursts of 4 per peer: the sender coalesces, never one frame a call.
    assert row["frames_per_sendmsg"] > 1

"""Refresh the repo-root ``BENCH_net.json`` transport curves.

Usage (from the repository root)::

    python benchmarks/bench_net.py
    python benchmarks/bench_net.py --quick --check

Two cells per connection count, both on the one transport the live plane
runs — the single-threaded reactor of :mod:`repro.core.linguafranca.tcp`:

* **echo** — a :class:`TcpServer` answering every frame at the packet
  layer (``raw_handler``) against N concurrent pipelined connections,
  driven by a single-threaded poll loop. Reports sustained msgs/s and
  p50/p99 latency.
* **fanout** — one :class:`AsyncSender` shipping bursts of frames to N
  peer connections, counted at a byte-counting sink. Reports msgs/s and
  ``frames_per_sendmsg``: frames handed to the kernel per batched
  ``sendmsg`` call over the measured window.

The echo server and the sink run in forked children, so the load
generator does not share a GIL with them.

``--check`` gates the top connection count: the echo cell sustains
>= 20k msgs/s with p99 < 1 s, and the fan-out cell coalesces >= 8
frames per ``sendmsg`` (bursts are 32 frames per peer, so about 32 is
expected; 1 would mean a syscall per frame).
"""

from __future__ import annotations

import os
import resource
import select
import signal
import socket
import struct
import time
from collections import deque

from common import bench_parser, finish

from repro.core.linguafranca.messages import Message
from repro.core.linguafranca.packets import encode_packet
from repro.core.linguafranca.tcp import AsyncSender, EventLoop, TcpServer

#: ``--check`` floors at the top connection count.
ECHO_FLOOR_MSGS_PER_S = 20_000
ECHO_P99_CEILING_MS = 1_000
FRAMES_PER_SENDMSG_FLOOR = 8

_REPLY_FRAME = encode_packet("PONG", b"{}")


def _frame_echo(mtype: str, payload: memoryview) -> bytes:
    return _REPLY_FRAME


def _raise_nofile(want: int = 16384) -> None:
    """Best-effort bump of RLIMIT_NOFILE (a cell holds ~2 fds/connection)."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < want:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE,
                               (min(want, hard), hard))
        except (ValueError, OSError):  # pragma: no cover
            pass


def _fork(serve, *args) -> tuple[int, int]:
    """Run ``serve(report_port, *args)`` in a forked child; returns
    ``(pid, port)`` once the child has reported its listening port."""
    rd, wr = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        try:
            serve(lambda port: os.write(wr, struct.pack("!I", port)), *args)
        finally:
            os._exit(0)
    os.close(wr)
    data = os.read(rd, 4)  # one atomic pipe write, or EOF if the child died
    os.close(rd)
    if len(data) != 4:
        raise RuntimeError("benchmark child died before reporting its port")
    return pid, struct.unpack("!I", data)[0]


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


def _serve_echo(report_port) -> None:
    server = TcpServer("127.0.0.1", 0, lambda message: None,
                       raw_handler=_frame_echo)
    report_port(server.address[1])
    while True:
        server.step(0.5)


# -- echo storm ---------------------------------------------------------------

def _poller():
    """``(poller, timeout scale)``: epoll where there is one (seconds),
    else poll (milliseconds). The instruments talk to the syscall
    interface directly: selectors-module bookkeeping would be overhead on
    top of the process being measured."""
    if hasattr(select, "epoll"):
        return select.epoll(), 1.0
    return select.poll(), 1000.0


class _StormConn:
    __slots__ = ("sock", "partial", "inflight", "outbuf", "registered_w")

    def __init__(self, sock: socket.socket, first: bytes) -> None:
        self.sock = sock
        self.partial = 0  # bytes of a reply not yet complete
        self.inflight: deque[float] = deque()  # send timestamps, FIFO
        self.outbuf = bytearray(first)
        self.registered_w = True


def run_storm(host: str, port: int, connections: int, duration: float = 4.0,
              pipeline: int = 4, payload: int = 32,
              warmup: float = 0.5) -> dict:
    """Drive ``connections`` concurrent pipelined echo exchanges for
    ``duration`` seconds (after ``warmup``); returns throughput and
    latency percentiles. Single-threaded poll loop.

    Every reply is the same ``_REPLY_FRAME``, so replies are counted by
    byte arithmetic alone: the client is the measurement instrument, and
    skipping CRC/JSON work leaves the shared CPU to the server."""
    frame = Message(mtype="PING", sender="storm",
                    body={"pad": "x" * max(payload - 16, 0)}).encode()
    reply_size = len(_REPLY_FRAME)
    poller, scale = _poller()
    RD, WR = select.POLLIN, select.POLLOUT
    conns: dict[int, _StormConn] = {}
    samples: list[float] = []
    measuring = False

    def pump(fd: int, mask: int) -> None:
        conn = conns[fd]
        if mask & RD:
            try:
                data = conn.sock.recv(262144)
            except (BlockingIOError, InterruptedError):
                data = None
            else:
                if not data:
                    raise RuntimeError("echo server closed a storm connection")
                replies, conn.partial = divmod(conn.partial + len(data),
                                               reply_size)
                now = time.monotonic()
                for _ in range(replies):
                    t0 = conn.inflight.popleft()
                    if measuring:
                        samples.append(now - t0)
        # Top the pipeline back up (one fresh request per completed
        # exchange), then push bytes while the kernel takes them.
        now = time.monotonic()
        while len(conn.inflight) < pipeline:
            conn.outbuf.extend(frame)
            conn.inflight.append(now)
        if conn.outbuf:
            try:
                del conn.outbuf[:conn.sock.send(conn.outbuf)]
            except (BlockingIOError, InterruptedError):
                pass
        want_w = bool(conn.outbuf)
        if want_w != conn.registered_w:
            conn.registered_w = want_w
            poller.modify(fd, RD | (WR if want_w else 0))

    try:
        for _ in range(connections):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.connect_ex((host, port))  # in flight; readiness tells
            conn = conns[sock.fileno()] = _StormConn(sock, frame * pipeline)
            conn.inflight.extend([time.monotonic()] * pipeline)
            poller.register(sock.fileno(), RD | WR)
        warm_end = time.monotonic() + warmup
        t_end = warm_end + duration
        while (now := time.monotonic()) < t_end:
            if not measuring and now >= warm_end:
                measuring, warm_end = True, now
            for fd, mask in poller.poll(0.2 * scale):
                pump(fd, mask)
        elapsed = time.monotonic() - warm_end
    finally:
        for conn in conns.values():
            conn.sock.close()
        if scale == 1.0:
            poller.close()

    samples.sort()

    def pct(q: float) -> float:
        if not samples:
            return 0.0
        return samples[min(int(len(samples) * q), len(samples) - 1)] * 1e3

    return {
        "connections": connections,
        "pipeline": pipeline,
        "msgs": len(samples),
        "msgs_per_s": len(samples) / elapsed if elapsed > 0 else 0.0,
        "p50_ms": pct(0.50),
        "p99_ms": pct(0.99),
    }


def run_echo(connections: int, duration: float = 4.0, pipeline: int = 4,
             payload: int = 32, warmup: float = 0.5) -> dict:
    """One echo cell: fork the reactor echo server, storm it, reap it."""
    pid, port = _fork(_serve_echo)
    try:
        time.sleep(0.05)  # let the child enter its serve loop
        row = run_storm("127.0.0.1", port, connections, duration=duration,
                        pipeline=pipeline, payload=payload, warmup=warmup)
    finally:
        _kill(pid)
    return {"cell": "echo", **row}


# -- send fan-out -------------------------------------------------------------

def _serve_sink(report_port, ctl: socket.socket) -> None:
    """Byte-counting sink: accepts everything, drains everything, and
    answers each byte on the control socket with the bytes received so
    far (frames in a fan-out run are uniform, so the sender turns bytes
    into frames)."""
    lst = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lst.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    lst.bind(("0.0.0.0", 0))
    lst.listen(4096)
    lst.setblocking(False)
    report_port(lst.getsockname()[1])
    poller, scale = _poller()
    poller.register(lst.fileno(), select.POLLIN)
    poller.register(ctl.fileno(), select.POLLIN)
    conns: dict[int, socket.socket] = {}
    received = 0
    while True:
        for fd, _ev in poller.poll(1.0 * scale):
            if fd == lst.fileno():
                while True:
                    try:
                        sock, _addr = lst.accept()
                    except OSError:
                        break
                    sock.setblocking(False)
                    conns[sock.fileno()] = sock
                    poller.register(sock.fileno(), select.POLLIN)
            elif fd == ctl.fileno():
                ctl.recv(1)
                ctl.send(struct.pack("!Q", received))
            else:
                try:
                    data = conns[fd].recv(262144)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError:
                    data = b""
                if not data:
                    poller.unregister(fd)
                    conns.pop(fd).close()
                received += len(data)


def _sink_bytes(ctl: socket.socket) -> int:
    ctl.send(b"?")
    return struct.unpack("!Q", ctl.recv(8, socket.MSG_WAITALL))[0]


def run_fanout(peers: int = 1000, duration: float = 4.0, payload: int = 32,
               warmup: float = 0.5, window: int = 8192,
               burst: int = 8) -> dict:
    """Sustained one-to-many send throughput: one sender, ``peers``
    connections, frames counted at the receiving sink. Each sweep ships
    a ``burst`` of frames to every peer — the live shipper shape (a node
    queues a batch of reports per driver turn). ``window`` caps the
    sender's total queued-but-unflushed frames."""
    frame = Message(mtype="PING", sender="storm",
                    body={"pad": "x" * max(payload - 16, 0)}).encode()
    ctl, ctl_child = socket.socketpair()
    pid, port = _fork(_serve_sink, ctl_child)
    ctl_child.close()
    loop = EventLoop()
    sender = AsyncSender(loop, sender="storm")
    posted = 0
    try:
        time.sleep(0.05)
        # Distinct loopback IPs (all of 127/8 is loopback on Linux): one
        # sender, ``peers`` connections, a single sink listener.
        addrs = [f"127.0.{i // 200}.{1 + i % 200}" for i in range(peers)]
        t_end = time.monotonic() + warmup + duration
        # Open every connection outside the measured window, as the
        # long-lived live plane would have them.
        for addr in addrs:
            sender.post_bytes(addr, port, frame, timeout=30.0)
            posted += 1
        while sender.pending():
            loop.step(0.05)
        t0 = time.monotonic()
        c0 = _sink_bytes(ctl)
        sent0, batches0 = sender.sent, sender.flush_batches
        while time.monotonic() < t_end:
            if sender.pending() < window:
                for addr in addrs:
                    for _ in range(burst):
                        sender.post_bytes(addr, port, frame, timeout=30.0)
                posted += peers * burst
            sender.service()  # batched flush: one sendmsg per peer
            loop.step(0)
        # Drain what is queued so "sent" is honest before the closing
        # count.
        deadline = time.monotonic() + 2.0
        while sender.pending() and time.monotonic() < deadline:
            loop.step(0.02)
        t1 = time.monotonic()
        c1 = _sink_bytes(ctl)
        if sender.errors:
            raise RuntimeError(f"fan-out had {sender.errors} send errors")
        sent = sender.sent - sent0
        batches = sender.flush_batches - batches0
    finally:
        sender.close()
        loop.close()
        ctl.close()
        _kill(pid)
    elapsed = t1 - t0
    received = (c1 - c0) // len(frame)
    return {
        "cell": "fanout",
        "connections": peers,
        "msgs": received,
        "msgs_per_s": received / elapsed if elapsed > 0 else 0.0,
        "sent": posted,
        "flush_batches": batches,
        "frames_per_sendmsg": sent / batches if batches else 0.0,
    }


# -- the grid -----------------------------------------------------------------

def run_netbench(config: dict) -> list[dict]:
    """One echo and one fan-out row per connection count."""
    _raise_nofile()
    counts, burst = config["connection_counts"], config["burst"]
    shared = {k: config[k] for k in ("duration", "payload", "warmup")}
    rows = [run_echo(n, pipeline=config["pipeline"], **shared)
            for n in counts]
    rows += [run_fanout(peers=n, burst=burst, window=burst * 2000, **shared)
             for n in counts]
    return rows


def check(config: dict, rows: list[dict]) -> list[str]:
    """The ``--check`` gates at the top connection count; one line per
    failure."""
    top = max(config["connection_counts"])
    cells = {(r["cell"], r["connections"]): r for r in rows}
    echo, fanout = cells[("echo", top)], cells[("fanout", top)]
    gates = [
        (echo["msgs_per_s"] >= ECHO_FLOOR_MSGS_PER_S,
         f"echo {echo['msgs_per_s']:,.0f} msgs/s is below "
         f"{ECHO_FLOOR_MSGS_PER_S:,}"),
        (echo["p99_ms"] < ECHO_P99_CEILING_MS,
         f"echo p99 {echo['p99_ms']:.1f} ms is not under "
         f"{ECHO_P99_CEILING_MS} ms"),
        (fanout["frames_per_sendmsg"] >= FRAMES_PER_SENDMSG_FLOOR,
         f"fan-out {fanout['frames_per_sendmsg']:.1f} frames per sendmsg "
         f"is below {FRAMES_PER_SENDMSG_FLOOR}"),
    ]
    return [f"{text} at {top} connections" for ok, text in gates if not ok]


def main(argv: list[str] | None = None) -> int:
    parser = bench_parser(__doc__, "net")
    parser.add_argument("--connections", type=str, default=None,
                        help="comma-separated connection counts (default "
                             "64,256,1000; 64,500 with --quick)")
    parser.add_argument("--duration", type=float, default=4.0,
                        help="measured seconds per cell")
    args = parser.parse_args(argv)

    default = "64,500" if args.quick else "64,256,1000"
    counts = [int(c) for c in (args.connections or default).split(",")]
    duration, warmup = (1.5, 0.4) if args.quick else (args.duration, 0.8)
    config = {"duration": duration, "pipeline": 4, "payload": 0,
              "warmup": warmup, "connection_counts": counts, "burst": 32}
    rows = run_netbench(config)

    print(f"{'cell':>7} {'conns':>6} {'msgs/s':>10} {'p50 ms':>8} "
          f"{'p99 ms':>8} {'frames/sendmsg':>15}")
    for row in rows:
        batching = row.get("frames_per_sendmsg")
        print(f"{row['cell']:>7} {row['connections']:>6} "
              f"{row['msgs_per_s']:>10,.0f} "
              f"{row.get('p50_ms', 0.0):>8.1f} {row.get('p99_ms', 0.0):>8.1f} "
              f"{'' if batching is None else f'{batching:.1f}':>15}")
    floors = {"echo_msgs_per_s": ECHO_FLOOR_MSGS_PER_S,
              "echo_p99_ms": ECHO_P99_CEILING_MS,
              "frames_per_sendmsg": FRAMES_PER_SENDMSG_FLOOR}
    return finish(args, "net", config, floors, rows, check(config, rows))


if __name__ == "__main__":
    raise SystemExit(main())

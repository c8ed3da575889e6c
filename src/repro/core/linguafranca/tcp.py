"""Real TCP transport for the lingua franca.

This is the deployment-grade counterpart of :class:`SimEndpoint`: the same
packet framing (:mod:`.packets`) over actual sockets. Per the paper's
portability discipline (§2.1, §5.1) the implementation is single-threaded
and uses only the most vanilla socket facilities — ``socket``, ``select``
-style readiness via :mod:`selectors`, and per-frame send deadlines; no
threads, no signals, no keep-alives.

The transport is built around one :class:`EventLoop` (a thin selector
wrapper) that several endpoints can share, so a live node multiplexes its
listening socket, every accepted connection, and every outbound
connection through a single ``select`` call per reactor turn:

* :class:`StreamServer` is a reactor's listener for any wire protocol:
  callers pump it with :meth:`step`; replies accumulate in a
  per-connection write queue and leave in one ``sendmsg`` (writev-style)
  batch per ready cycle instead of one ``send`` per packet.
  :class:`TcpServer` is the lingua franca's: reads are parsed in place
  (zero-copy ``PacketDecoder.next_record``) and a handler maps each
  inbound :class:`~.messages.Message` to an optional reply.
* :class:`AsyncSender` is the non-blocking outbound half: fire-and-forget
  frames are queued per peer and flushed in ``sendmsg`` batches as the
  connection becomes writable, with transparent once-per-failure
  reconnects. Nothing in it ever blocks the reactor.

There is no blocking client. A request/response exchange is a server and
a sender on one loop: the request leaves through the sender with the
local server's contact as ``sender``, and the reply arrives at that
server as a fresh inbound frame correlated by ``req_id`` (the pattern
:class:`~repro.core.netdriver.NetDriver` uses).

Every socket the module creates — listening-side accepts and outbound
connects — sets ``TCP_NODELAY``: the lingua franca is small-record
request/response traffic, exactly the shape Nagle's algorithm stalls.
"""

from __future__ import annotations

import errno
import selectors
import socket
import time
from collections import deque
from typing import Callable, Optional

from .messages import Message, MessageError
from .packets import PacketDecoder, PacketError

__all__ = [
    "EventLoop",
    "StreamServer",
    "TcpServer",
    "AsyncSender",
    "TransportError",
]

Handler = Callable[[Message], Optional[Message]]

#: Buffers handed to one ``sendmsg`` call. IOV_MAX is >= 1024 everywhere
#: we run; 64 keeps each syscall's copy bounded while still amortizing
#: syscall cost ~64x for bursty writers.
SENDMSG_BATCH = 64

#: ``connect_ex`` results that mean "in flight, readiness will tell".
_INPROGRESS = {errno.EINPROGRESS, errno.EWOULDBLOCK, errno.EALREADY}


class TransportError(Exception):
    """Connection-level failure."""


def _nodelay(sock: socket.socket) -> None:
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - non-TCP/odd platforms
        pass


class EventLoop:
    """A selector shared by every socket of one reactor.

    Callbacks are registered per socket and invoked with the ready mask.
    A callback may unregister *other* sockets (dropping a peer while
    servicing another); the dispatch loop revalidates each key against
    the live map before invoking it.
    """

    def __init__(self) -> None:
        self._sel = selectors.DefaultSelector()
        self._closed = False

    def register(self, sock, events: int, callback) -> None:
        self._sel.register(sock, events, callback)

    def modify(self, sock, events: int, callback) -> None:
        self._sel.modify(sock, events, callback)

    def unregister(self, sock) -> None:
        try:
            self._sel.unregister(sock)
        except (KeyError, ValueError):
            pass

    def step(self, timeout: float = 0.0) -> int:
        """Dispatch one readiness cycle; returns ready-key count."""
        if self._closed:
            raise TransportError("event loop is closed")
        ready = self._sel.select(timeout)
        live = self._sel.get_map()
        for key, mask in ready:
            if live.get(key.fd) is not key:
                continue  # unregistered by an earlier callback this cycle
            key.data(mask)
        return len(ready)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for key in list(self._sel.get_map().values()):
            try:
                key.fileobj.close()  # type: ignore[union-attr]
            except OSError:
                pass
        self._sel.close()


class _Connection:
    """Server-side connection state: the listener's decoder (from
    :meth:`StreamServer._open`) and its name for the peer, if any, plus
    a frame queue flushed in batched vectored writes."""

    __slots__ = ("sock", "decoder", "peer", "out", "want_write",
                 "close_when_flushed")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = None
        self.peer: Optional[str] = None
        self.out: deque = deque()  # bytes/memoryview frames awaiting flush
        self.want_write = False
        #: Half-close discipline for protocols that end a conversation
        #: (HTTP ``Connection: close``, protocol errors): the reactor
        #: finishes flushing the queue, then drops the connection.
        self.close_when_flushed = False


class StreamServer:
    """One listening socket's accept/read/flush/drop machinery, whatever
    the bytes mean: a subclass opens each accepted connection
    (:meth:`_open`) and handles each read (:meth:`_received`). Pass
    ``loop=`` to share an :class:`EventLoop` (the NetDriver does);
    without it the server owns a private loop and :meth:`step` pumps it.
    """

    def __init__(self, host: str, port: int,
                 loop: Optional[EventLoop] = None) -> None:
        #: Every read lands here and is handed on as a slice, which a
        #: decoder copies into its own stream buffer: ``recv(n)`` would
        #: allocate n bytes per read.
        self._rbuf = memoryview(bytearray(262144))
        self._loop = loop if loop is not None else EventLoop()
        self._owns_loop = loop is None
        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listen.bind((host, port))
        self._listen.listen(1024)
        self._listen.setblocking(False)
        self._loop.register(self._listen, selectors.EVENT_READ,
                            self._on_accept)
        self.address = self._listen.getsockname()
        self._conns: set[_Connection] = set()
        self._closed = False

    @property
    def contact(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def step(self, timeout: float = 0.1) -> None:
        """Process ready I/O once.

        Only meaningful for a server that owns its loop — with a shared
        loop the owner pumps, and this pumps the shared loop too.
        """
        if self._closed:
            raise TransportError("server is closed")
        self._loop.step(timeout)

    # -- what a protocol supplies -------------------------------------------
    def _open(self, conn: _Connection):
        """The decoder for a newly accepted connection."""
        raise NotImplementedError

    def _received(self, conn: _Connection, data: memoryview) -> None:
        """Handle one read; ``data`` is only valid for the call."""
        raise NotImplementedError

    # -- accept/read --------------------------------------------------------
    def _on_accept(self, mask: int) -> None:
        # Accept everything pending: under a connection storm one ready
        # event may stand for hundreds of queued handshakes, and one
        # accept per select() turns the backlog into a latency cliff.
        # (``_accept`` stays a separate zero-arg method — tests wrap it
        # to count inbound connections.)
        while self._accept():
            pass

    def _accept(self) -> bool:
        """Accept one pending connection; False when none is pending."""
        try:
            sock, _addr = self._listen.accept()
        except (BlockingIOError, InterruptedError, OSError):
            return False
        sock.setblocking(False)
        _nodelay(sock)
        conn = _Connection(sock)
        conn.decoder = self._open(conn)
        self._conns.add(conn)
        self._loop.register(
            sock, selectors.EVENT_READ,
            lambda mask, conn=conn: self._on_conn(conn, mask))
        return True

    def _on_conn(self, conn: _Connection, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            if not self._flush(conn):
                return  # connection dropped mid-flush
        if not (mask & selectors.EVENT_READ):
            return
        try:
            n = conn.sock.recv_into(self._rbuf)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(conn)
            return
        if not n:
            # recv of 0 bytes on a readable socket: peer closed.
            self._drop(conn)
            return
        self._received(conn, self._rbuf[:n])

    # -- flush/drop ---------------------------------------------------------
    def _flush(self, conn: _Connection) -> bool:
        """Vectored flush of the connection's frame queue; False if the
        connection died. Registers/unregisters write interest so an
        unwritable peer never busy-loops the reactor."""
        out = conn.out
        sock = conn.sock
        while out:
            batch = [out[i] for i in range(min(len(out), SENDMSG_BATCH))]
            try:
                sent = sock.sendmsg(batch)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop(conn)
                return False
            while sent and out:
                head = out[0]
                if sent >= len(head):
                    sent -= len(head)
                    out.popleft()
                else:
                    out[0] = memoryview(head)[sent:]
                    sent = 0
        want = bool(out)
        if not want and conn.close_when_flushed:
            self._drop(conn)
            return False
        if want and not conn.want_write:
            conn.want_write = True
            self._loop.modify(
                sock, selectors.EVENT_READ | selectors.EVENT_WRITE,
                lambda mask, conn=conn: self._on_conn(conn, mask))
        elif not want and conn.want_write:
            conn.want_write = False
            self._loop.modify(
                sock, selectors.EVENT_READ,
                lambda mask, conn=conn: self._on_conn(conn, mask))
        return True

    def _drop(self, conn: _Connection) -> None:
        self._conns.discard(conn)
        self._loop.unregister(conn.sock)
        try:
            conn.sock.close()
        except OSError:
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_loop:
            self._loop.close()
            return
        # Shared loop: withdraw only this server's sockets.
        for conn in list(self._conns):
            self._drop(conn)
        self._loop.unregister(self._listen)
        try:
            self._listen.close()
        except OSError:
            pass


class TcpServer(StreamServer):
    """Single-threaded lingua-franca server over TCP: each connection
    parses CRC-framed records (:class:`PacketDecoder`) and ``handler``
    maps each inbound message to an optional reply on the same
    connection."""

    def __init__(
        self,
        host: str,
        port: int,
        handler: Handler,
        loop: Optional[EventLoop] = None,
        raw_handler: Optional[Callable[[str, memoryview], bytes]] = None,
    ) -> None:
        self.handler = handler
        #: Transport-level fast path: when set, inbound records bypass
        #: Message parsing entirely — ``raw_handler(mtype, payload_view)``
        #: returns the reply *frame bytes* to queue (b"" for none). For
        #: relay-style services (and the transport benchmark) that don't
        #: need message semantics. The view is only valid for the call.
        self.raw_handler = raw_handler
        self.messages_handled = 0
        self.decode_errors = 0
        super().__init__(host, port, loop)

    def _open(self, conn: _Connection) -> PacketDecoder:
        return PacketDecoder()

    def _received(self, conn: _Connection, data: memoryview) -> None:
        """Drain every complete buffered record — a reply frame from
        ``raw_handler``, or a message for ``handler`` — then one batched
        flush for every reply this ready cycle produced."""
        decoder = conn.decoder
        decoder.feed(data)
        raw = self.raw_handler
        while True:
            try:
                # Zero-copy: the record is parsed straight out of the
                # stream buffer, no per-packet payload bytes.
                record = decoder.next_record(raw or Message.from_parts)
            except MessageError:
                # Malformed record in a well-framed packet: count it,
                # keep the connection.
                self.decode_errors += 1
                continue
            except PacketError:
                # Corrupt stream: the only safe recovery is to drop it.
                self.decode_errors += 1
                self._drop(conn)
                return
            if record is None:
                break
            if raw is None:
                self._dispatch(conn, record)
                continue
            self.messages_handled += 1
            if record:
                conn.out.append(record)
        self._flush(conn)

    def _dispatch(self, conn: _Connection, message: Message) -> None:
        self.messages_handled += 1
        reply = self.handler(message)
        if reply is not None:
            if reply.reply_to is None:
                reply.reply_to = message.req_id
            if not reply.sender:
                reply.sender = self.contact
            conn.out.append(reply.encode())


class _Frame:
    """One queued outbound frame with its forecasting bookkeeping."""

    __slots__ = ("data", "tag", "t0", "deadline")

    def __init__(self, data, tag: Optional[str], t0: float,
                 deadline: float) -> None:
        self.data = data
        self.tag = tag
        self.t0 = t0
        self.deadline = deadline


class _Peer:
    """Outbound connection state for one destination."""

    __slots__ = ("key", "sock", "out", "connected", "want_write",
                 "reconnected")

    def __init__(self, key: tuple[str, int]) -> None:
        self.key = key
        self.sock: Optional[socket.socket] = None
        self.out: deque[_Frame] = deque()
        self.connected = False
        self.want_write = False
        #: One transparent reconnect per connection incarnation: a stale
        #: cached connection is retried once on a fresh socket, and only
        #: a failure on the fresh connection surfaces as errors.
        self.reconnected = False


class AsyncSender:
    """Non-blocking fire-and-forget sends multiplexed on an event loop.

    One cached connection per peer, a per-peer outbound frame queue, and
    batched ``sendmsg`` flushes: a reactor that fans out to hundreds of
    peers (or pushes thousands of frames to one) spends one syscall per
    ready cycle per peer, not one per packet.

    Failure semantics match the fire-and-forget contract the drivers
    already rely on: unreachable peers cost ``errors`` (one per frame),
    never an exception; recovery is the caller's time-out/retry ladder.
    ``observer(tag, seconds)`` is called as each frame is handed to the
    kernel, feeding measured queue+connect+write time back into the
    forecast-driven time-out policy.
    """

    def __init__(
        self,
        loop: EventLoop,
        sender: str = "async",
        observer: Optional[Callable[[Optional[str], float], None]] = None,
    ) -> None:
        self._loop = loop
        self.sender = sender
        self.observer = observer
        self._peers: dict[tuple[str, int], _Peer] = {}
        self.sent = 0
        self.errors = 0
        self.reconnects = 0
        self.flush_batches = 0
        self._closed = False

    # -- public API ---------------------------------------------------------
    def pending(self) -> int:
        return sum(len(p.out) for p in self._peers.values())

    def post(self, host: str, port: int, message: Message,
             timeout: float = 5.0, tag: Optional[str] = None) -> None:
        """Queue one message for delivery; never blocks, never raises."""
        if not message.sender:
            message.sender = self.sender
        self.post_bytes(host, int(port), message.encode(), timeout, tag)

    def post_bytes(self, host: str, port: int, data: bytes,
                   timeout: float = 5.0, tag: Optional[str] = None) -> None:
        if self._closed:
            self.errors += 1
            return
        key = (host, int(port))
        now = time.monotonic()
        peer = self._peers.get(key)
        if peer is None:
            peer = self._peers[key] = _Peer(key)
        peer.out.append(_Frame(data, tag, now, now + timeout))
        if peer.sock is None:
            if not self._connect(peer):
                return
        # Coalescing: don't transmit per post. Arm write interest so the
        # next loop turn (or the next service() call) flushes everything
        # queued for this peer as one batched sendmsg — a burst of posts
        # between reactor turns costs one syscall, not one each.
        self._want_write(peer, True)

    def service(self, _now: Optional[float] = None) -> None:
        """Flush queued frames and expire frames stuck past their
        deadline (peer wedged or the connect never resolving). Call once
        per reactor turn."""
        now = time.monotonic()
        for peer in list(self._peers.values()):
            if peer.out and peer.out[0].deadline < now:
                self._fail_peer(peer, drop_frames=True)
            elif peer.out and peer.connected:
                self._flush(peer)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for peer in list(self._peers.values()):
            # Frames still queued at close were never delivered: count
            # them so fire-and-forget callers see deterministic error
            # accounting (flush first if delivery matters).
            self.errors += len(peer.out)
            self._teardown(peer)
        self._peers.clear()

    # -- connection management ----------------------------------------------
    def _connect(self, peer: _Peer) -> bool:
        """Start a non-blocking connect; False when it failed outright."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        _nodelay(sock)
        try:
            err = sock.connect_ex(peer.key)
        except OSError as exc:
            err = exc.errno or errno.EINVAL
        if err == 0:
            peer.sock = sock
            peer.connected = True
            self._register(peer)
            return True
        if err in _INPROGRESS:
            peer.sock = sock
            peer.connected = False
            self._register(peer, want_write=True)
            return True
        try:
            sock.close()
        except OSError:
            pass
        self._fail_peer(peer, drop_frames=True)
        return False

    def _register(self, peer: _Peer, want_write: bool = False) -> None:
        events = selectors.EVENT_READ
        if want_write or peer.out:
            events |= selectors.EVENT_WRITE
        peer.want_write = bool(events & selectors.EVENT_WRITE)
        self._loop.register(
            peer.sock, events,
            lambda mask, peer=peer: self._on_ready(peer, mask))

    def _want_write(self, peer: _Peer, want: bool) -> None:
        if peer.sock is None or peer.want_write == want:
            return
        peer.want_write = want
        events = selectors.EVENT_READ
        if want:
            events |= selectors.EVENT_WRITE
        self._loop.modify(
            peer.sock, events,
            lambda mask, peer=peer: self._on_ready(peer, mask))

    def _on_ready(self, peer: _Peer, mask: int) -> None:
        if peer.sock is None:
            return
        if not peer.connected and mask & selectors.EVENT_WRITE:
            err = peer.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err:
                self._fail_peer(peer, drop_frames=True)
                return
            peer.connected = True
            peer.reconnected = False
        if mask & selectors.EVENT_READ and peer.connected:
            # Peers never talk back on a fire-and-forget connection:
            # readable means EOF/RST (the peer restarted or rebooted).
            try:
                data = peer.sock.recv(4096)
            except (BlockingIOError, InterruptedError):
                data = b"x"
            except OSError:
                data = b""
            if not data:
                self._stale(peer)
                return
        if peer.connected and peer.out:
            self._flush(peer)
        elif peer.connected:
            self._want_write(peer, False)

    def _stale(self, peer: _Peer) -> None:
        """An established connection died under us. Reconnect once with
        the queue intact; a second failure fails the frames."""
        had_frames = bool(peer.out)
        self._teardown(peer, keep_frames=True)
        if not had_frames:
            if not peer.reconnected:
                # Idle cache entry went stale: forget it; the next post
                # reconnects naturally.
                self._peers.pop(peer.key, None)
            return
        if peer.reconnected:
            self._fail_peer(peer, drop_frames=True)
            return
        peer.reconnected = True
        self.reconnects += 1
        self._connect(peer)

    def _fail_peer(self, peer: _Peer, drop_frames: bool) -> None:
        if drop_frames and peer.out:
            self.errors += len(peer.out)
            peer.out.clear()
        self._teardown(peer, keep_frames=not drop_frames)
        self._peers.pop(peer.key, None)

    def _teardown(self, peer: _Peer, keep_frames: bool = False) -> None:
        if peer.sock is not None:
            self._loop.unregister(peer.sock)
            try:
                peer.sock.close()
            except OSError:
                pass
            peer.sock = None
        peer.connected = False
        peer.want_write = False
        if not keep_frames:
            peer.out.clear()

    # -- flushing -------------------------------------------------------------
    def _flush(self, peer: _Peer) -> None:
        out = peer.out
        sock = peer.sock
        while out:
            batch = [out[i].data for i in range(min(len(out), SENDMSG_BATCH))]
            try:
                sent = sock.sendmsg(batch)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._stale(peer)
                return
            self.flush_batches += 1
            now = None
            while sent and out:
                head = out[0]
                if sent >= len(head.data):
                    sent -= len(head.data)
                    out.popleft()
                    self.sent += 1
                    if self.observer is not None:
                        if now is None:
                            now = time.monotonic()
                        self.observer(head.tag, now - head.t0)
                else:
                    head.data = memoryview(head.data)[sent:]
                    sent = 0
        self._want_write(peer, bool(out))


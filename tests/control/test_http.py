"""The HTTP face of the reactor: framing edges and hostile byte streams.

Decoder tests are sans-IO; the server tests pump a real HttpServer from
a helper thread (the library itself stays single-threaded) and attack it
with raw sockets — malformed request lines, oversized uploads, slowloris
dribbles — asserting the §2.3 robustness rule: a hostile byte stream is
answered with a correct 4xx, never a wedged reactor.
"""

import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    GatewayClient,
    GatewayCore,
    HttpDecoder,
    HttpError,
    HttpRequest,
    HttpResponseDecoder,
    HttpServer,
    WorkQueue,
    json_response,
)
from repro.control.http import (MAX_BODY_BYTES, MAX_HEADER_BYTES,
                                HttpConnection)


def _request(method="GET", path="/health", body=b"", version="HTTP/1.1",
             extra=""):
    head = (f"{method} {path} {version}\r\n"
            f"Content-Length: {len(body)}\r\n{extra}\r\n")
    return head.encode("latin-1") + body


# -- decoder: framing ---------------------------------------------------------

def test_decoder_parses_simple_get():
    decoder = HttpDecoder()
    decoder.feed(_request())
    request = decoder.next_request()
    assert request.method == "GET"
    assert request.path == "/health"
    assert request.error is None
    assert request.close is False  # HTTP/1.1 keep-alive default


def test_decoder_honors_connection_close_and_http10():
    decoder = HttpDecoder()
    decoder.feed(_request(extra="Connection: close\r\n"))
    assert decoder.next_request().close is True
    decoder = HttpDecoder()
    decoder.feed(_request(version="HTTP/1.0"))
    assert decoder.next_request().close is True
    decoder = HttpDecoder()
    decoder.feed(_request(version="HTTP/1.0",
                          extra="Connection: keep-alive\r\n"))
    assert decoder.next_request().close is False


def test_decoder_handles_pipelined_requests():
    decoder = HttpDecoder()
    decoder.feed(_request(path="/a") + _request("POST", "/b", b'{"x":1}'))
    first = decoder.next_request()
    second = decoder.next_request()
    assert (first.path, second.path) == ("/a", "/b")
    assert second.json() == {"x": 1}
    assert decoder.next_request() is None


def test_decoder_survives_slowloris_byte_dribble():
    decoder = HttpDecoder()
    wire = _request("POST", "/jobs", b'{"kind": "noop"}')
    for i in range(len(wire) - 1):
        decoder.feed(wire[i:i + 1])
        assert decoder.next_request() is None  # never a partial request
    decoder.feed(wire[-1:])
    request = decoder.next_request()
    assert request.error is None
    assert request.json() == {"kind": "noop"}


def test_decoder_waits_for_split_body():
    decoder = HttpDecoder()
    wire = _request("POST", "/jobs", b'{"a": 1}')
    decoder.feed(wire[:-4])
    assert decoder.next_request() is None
    decoder.feed(wire[-4:])
    assert decoder.next_request().json() == {"a": 1}


@pytest.mark.parametrize("wire, status", [
    (b"NONSENSE\r\n\r\n", 400),                      # no method/path/version
    (b"BREW /pot HTTP/1.1\r\n\r\n", 400),            # unknown method
    (b"GET /x HTTP/2.0\r\n\r\n", 400),               # unsupported version
    (b"GET noslash HTTP/1.1\r\n\r\n", 400),          # path without /
    (_request(extra="Transfer-Encoding: chunked\r\n"), 400),
    (b"GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
    (b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    (b"GET / HTTP/1.1\r\nBad Header Line\r\n\r\n", 400),
    # RFC 9110 Content-Length is 1*DIGIT; int() alone took these as 10.
    (b"GET / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n", 400),
    (b"GET / HTTP/1.1\r\nContent-Length: +10\r\n\r\n", 400),
    ("GET / HTTP/1.1\r\nContent-Length: ²\r\n\r\n"  # superscript 2
     .encode("latin-1"), 400),
    # Two lengths for one body (request smuggling): never last-one-wins.
    (b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 10\r\n\r\n"
     b"abcdefghij", 400),
])
def test_decoder_rejects_malformed_framing(wire, status):
    decoder = HttpDecoder()
    decoder.feed(wire)
    request = decoder.next_request()
    assert request.error is not None
    assert request.error[0] == status
    assert request.close is True
    # The decoder is poisoned: no resync on a boundary-less stream.
    decoder.feed(_request())
    assert decoder.next_request() is None


def test_decoder_accepts_a_repeated_equal_content_length():
    decoder = HttpDecoder()
    decoder.feed(b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n"
                 b"Content-Length: 2\r\n\r\n{}")
    request = decoder.next_request()
    assert request.error is None and request.body == b"{}"


# -- decoder: fuzz ------------------------------------------------------------

_paths = st.text("abcdefghijklmnopqrstuvwxyz0123456789/-_.?=&%",
                 max_size=24).map(lambda s: "/" + s)
_requests = st.lists(st.tuples(
    st.sampled_from(["GET", "POST", "PUT", "DELETE"]), _paths,
    st.binary(max_size=64), st.booleans()), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(requests=_requests, data=st.data())
def test_fuzz_any_split_of_a_pipelined_stream_parses_the_same(requests,
                                                              data):
    stream = b"".join(_request(m, p, b, extra="Connection: close\r\n" * c)
                      for m, p, b, c in requests)
    cuts = sorted(data.draw(st.lists(
        st.integers(0, len(stream)), max_size=8)))
    decoder = HttpDecoder()
    parsed = []
    for start, end in zip([0] + cuts, cuts + [len(stream)]):
        decoder.feed(stream[start:end])
        parsed += iter(decoder.next_request, None)
    assert [(r.method, r.path, r.body, r.close, r.error) for r in parsed] \
        == [(m, p, b, c, None) for m, p, b, c in requests]


@settings(max_examples=300, deadline=None)
@given(chunks=st.lists(st.one_of(
    st.binary(max_size=64),
    st.sampled_from([b"GET / HTTP/1.1\r\n", b"\r\n", b"\r\n\r\n",
                     b"Content-Length: ", b"Content-Length: 5\r\n",
                     b"POST /jobs HTTP/1.0\r\n", b"Transfer-Encoding: x\r\n",
                     b"9" * 12])), max_size=12))
def test_fuzz_hostile_bytes_yield_requests_or_one_error_then_nothing(chunks):
    decoder = HttpDecoder(max_header=512, max_body=256)
    errors = 0
    for chunk in chunks:
        decoder.feed(chunk)
        for request in iter(decoder.next_request, None):
            assert isinstance(request, HttpRequest)
            assert not errors, "a request after the error"
            if request.error is not None:
                errors += 1
                assert request.error[0] in (400, 413) and request.close
            else:
                assert request.method and request.path.startswith("/")
                assert len(request.body) <= 256
    if errors:
        decoder.feed(_request())  # poisoned: no resync
        assert decoder.next_request() is None


def test_decoder_refuses_oversized_declared_body_with_413():
    decoder = HttpDecoder(max_body=1024)
    decoder.feed(b"POST /jobs HTTP/1.1\r\nContent-Length: 2048\r\n\r\n")
    request = decoder.next_request()
    assert request.error[0] == 413  # refused at the header, body unread


def test_decoder_caps_header_block():
    decoder = HttpDecoder(max_header=256)
    decoder.feed(b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 300)
    request = decoder.next_request()
    assert request.error[0] == 400


def test_response_decoder_roundtrips_server_frames():
    decoder = HttpResponseDecoder()
    decoder.feed(json_response(201, {"id": "t-1"}))
    status, headers, body = decoder.next_response()
    assert status == 201
    assert headers["content-type"] == "application/json"
    assert json.loads(body) == {"id": "t-1"}
    with pytest.raises(HttpError):
        decoder.feed(b"garbage not http\r\n\r\n")
        decoder.next_response()


def test_response_decoder_takes_only_digits_as_content_length():
    """RFC 9110 ``1*DIGIT``, as the request decoder: ``int()`` alone read
    -5 as an empty body and left the rest to misparse the stream."""
    for length in ("-5", "+3", "1_0", "\u00b2"):   # the last: superscript 2
        decoder = HttpResponseDecoder()
        decoder.feed(f"HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n"
                     "\r\nhello world".encode("latin-1"))
        for _ in range(2):                  # and the stream stays refused
            with pytest.raises(HttpError):
                decoder.next_response()


# -- server: real sockets -----------------------------------------------------

# -- one connection: answers in order, bounded while parked ------------------
def _parking_app(request):
    if request.path == "/events":
        return None
    return json_response(200, {"path": request.path})


def test_a_connection_fails_bytes_pipelined_past_bounds_behind_a_park():
    """While a request is parked nothing drains the decoder: one
    request's bounds is all it may hold, then the parked request is
    answered 400, the connection closes and later bytes are not kept."""
    cap = MAX_HEADER_BYTES + MAX_BODY_BYTES
    conn = HttpConnection()
    conn.decoder.feed(_request(path="/events"))
    assert conn.serve(_parking_app) == [] and conn.parked is not None
    conn.decoder.feed(b"x" * cap)
    assert conn.serve(_parking_app) == [] and conn.decoder.buffered() == cap
    conn.decoder.feed(b"x")
    (frame,) = conn.serve(_parking_app)
    decoder = HttpResponseDecoder()
    decoder.feed(frame)
    status, headers, body = decoder.next_response()
    assert status == 400 and b"parked" in body
    assert headers["connection"] == "close" and conn.closed
    conn.decoder.feed(b"more")
    assert conn.decoder.buffered() == 0 and conn.serve(_parking_app) == []


def test_a_connection_with_nothing_parked_takes_any_pipeline():
    """The bound is the parked case's: served as they arrive, pipelined
    requests beyond it are all answered, in order."""
    requests = [_request(path=f"/{i}") for i in range(
        (MAX_HEADER_BYTES + MAX_BODY_BYTES) // 40)]
    conn = HttpConnection()
    conn.decoder.feed(b"".join(requests))
    frames = conn.serve(_parking_app)
    assert len(frames) == len(requests) and not conn.closed
    assert b'"path":"/7"' in frames[7]


def test_http_server_answers_a_parked_request_500_and_closes():
    """``HttpServer`` holds no long-poll: a request its app parks is
    answered at once, never left waiting for the socket's next read."""
    server = HttpServer("127.0.0.1", 0, _parking_app)
    try:
        with socket.create_connection(server.address, timeout=2) as sock:
            sock.setblocking(False)
            sock.sendall(_request(path="/events") + _request())
            data, deadline = b"", time.monotonic() + 3.0
            while time.monotonic() < deadline:
                server.step(0.01)
                try:
                    chunk = sock.recv(65536)
                except BlockingIOError:
                    continue
                if not chunk:
                    break
                data += chunk
            else:
                pytest.fail("the connection stayed open")
    finally:
        server.close()
    decoder = HttpResponseDecoder()
    decoder.feed(data)
    status, headers, _ = decoder.next_response()
    assert status == 500 and headers["connection"] == "close"
    assert decoder.next_response() is None   # nothing after the close


class GatewayUnderTest:
    """An HttpServer wrapping a GatewayCore, pumped from a thread."""

    def __init__(self):
        self.work = WorkQueue(prefix="t")
        self.core = GatewayCore("gw-test", self.work)
        self.server = HttpServer("127.0.0.1", 0, self._app)
        self.contact = "%s:%d" % self.server.address
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _app(self, request):
        status, doc, _route = self.core.handle(
            request.method, request.path, request.body, time.monotonic())
        return json_response(status, doc, close=request.close)

    def _run(self):
        while not self._stop.is_set():
            self.server.step(0.02)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=2)
        self.server.close()


def test_job_api_over_real_sockets():
    with GatewayUnderTest() as world:
        with GatewayClient(world.contact) as client:
            accepted = client.submit({"kind": "noop"})
            assert accepted["state"] == "queued"
            job_id = accepted["id"]
            assert client.job(job_id)["spec"] == {"kind": "noop"}
            assert client.job("t-404") is None
            status1, doc1 = client.cancel(job_id)
            status2, doc2 = client.cancel(job_id)  # double-cancel: idempotent
            assert (status1, status2) == (200, 200)
            assert doc1["state"] == doc2["state"] == "cancelled"
            assert client.health()["ok"] is True
            assert client.queue()["state_cancelled"] == 1


def test_malformed_bytes_answered_400_and_closed():
    with GatewayUnderTest() as world:
        host, port = world.server.address
        with socket.create_connection((host, port), timeout=2) as sock:
            sock.sendall(b"THIS IS NOT HTTP\r\n\r\n")
            decoder = HttpResponseDecoder()
            response = None
            while response is None:
                chunk = sock.recv(4096)
                assert chunk, "server closed without answering"
                decoder.feed(chunk)
                response = decoder.next_response()
            status, _, body = response
            assert status == 400
            assert b"error" in body
            # The connection is closed after the error flushes.
            sock.settimeout(2)
            assert sock.recv(4096) == b""
        assert world.server.protocol_errors == 1


def test_oversized_upload_refused_413_at_header():
    with GatewayUnderTest() as world:
        host, port = world.server.address
        with socket.create_connection((host, port), timeout=2) as sock:
            sock.sendall(f"POST /jobs HTTP/1.1\r\n"
                         f"Content-Length: {300 * 1024}\r\n\r\n"
                         .encode("latin-1"))
            decoder = HttpResponseDecoder()
            response = None
            while response is None:
                chunk = sock.recv(4096)
                assert chunk
                decoder.feed(chunk)
                response = decoder.next_response()
            assert response[0] == 413
        assert len(world.work.jobs) == 0


def _pump_split(server, streams: list, step: int, replies: int) -> list:
    """Send each byte stream on its own connection, ``step`` bytes at a
    time and round-robin, reading between sends, so every request
    reaches the server's one reused read buffer in pieces interleaved
    with the other connection's; returns each connection's responses."""
    host, port = server.address
    socks = [socket.create_connection((host, port)) for _ in streams]
    decoders = [HttpResponseDecoder() for _ in streams]
    got = [[] for _ in streams]
    try:
        for sock in socks:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
        at = 0
        deadline = time.monotonic() + 20
        while sum(map(len, got)) < replies:
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
                out += iter(decoder.next_response, None)
    finally:
        for sock in socks:
            sock.close()
    return got


@pytest.mark.parametrize("step", [1, 7, 1500, 65536])
def test_requests_split_across_many_reads_decode_the_same(step):
    import zlib

    def app(request):
        return json_response(200, {
            "method": request.method, "path": request.path,
            "len": len(request.body), "crc": zlib.crc32(request.body)})

    # The largest body the server takes: with its head, more than one
    # read buffer.
    big = bytes(range(256)) * (MAX_BODY_BYTES // 256)
    requests = [
        [_request("GET", "/one"), _request("POST", "/big", big),
         _request("POST", "/two", b'{"a":1}') + _request("GET", "/three")],
        [_request("POST", "/x", b"y" * 999) + _request("GET", "/z")
         + _request("POST", "/big2", big[::-1])],
    ]
    streams = [b"".join(stream) for stream in requests]
    if step == 1:  # a byte per read, for the small requests only
        streams = [_request("GET", "/one") + _request("POST", "/two", b"ab"),
                   _request("GET", "/z")]
    server = HttpServer("127.0.0.1", 0, app)
    try:
        want = []
        for stream in streams:
            decoder = HttpDecoder()
            decoder.feed(stream)
            want.append([(200, {"method": r.method, "path": r.path,
                                "len": len(r.body),
                                "crc": zlib.crc32(r.body)})
                         for r in iter(decoder.next_request, None)])
        got = _pump_split(server, streams, step, sum(map(len, want)))
    finally:
        server.close()
    assert [[(status, json.loads(body)) for status, _, body in out]
            for out in got] == want


def test_slowloris_does_not_stall_other_clients():
    with GatewayUnderTest() as world:
        host, port = world.server.address
        with socket.create_connection((host, port), timeout=2) as slow:
            slow.sendall(b"GET /heal")  # ...and then just sit there
            time.sleep(0.05)
            # A well-behaved client on another connection is unaffected.
            with GatewayClient(world.contact) as client:
                t0 = time.monotonic()
                assert client.health()["ok"] is True
                assert time.monotonic() - t0 < 1.0
            slow.sendall(b"th HTTP/1.1\r\n\r\n")  # finish the dribble
            decoder = HttpResponseDecoder()
            response = None
            while response is None:
                chunk = slow.recv(4096)
                assert chunk
                decoder.feed(chunk)
                response = decoder.next_response()
            assert response[0] == 200


def test_client_reconnects_after_gateway_restart():
    """The probe-after-kill path: a cached client connection goes stale
    when the gateway dies; the next request retries on a fresh socket
    against the reborn gateway on the same contact."""
    first = GatewayUnderTest()
    host, port = first.server.address
    with first:
        client = GatewayClient(first.contact)
        accepted = client.submit({"kind": "noop"})
    # The gateway is dead; its replacement binds the same port and
    # replays the (here: shared in-memory) store.
    reborn = GatewayUnderTest()
    reborn.server.close()
    reborn.work = first.work
    reborn.core = GatewayCore("gw-reborn", first.work)
    for _ in range(50):
        try:
            reborn.server = HttpServer(host, port, reborn._app)
            break
        except OSError:
            time.sleep(0.1)
    with reborn:
        job = client.job(accepted["id"])
        assert job is not None and job["id"] == accepted["id"]
        assert client.health()["node"] == "gw-reborn"
    client.close()


def test_a_refusal_is_reported_only_when_nothing_was_sent():
    """A request on a stale cached connection may have been delivered,
    so its error is not a refusal even when the reconnect is refused;
    a client that never connected was refused outright."""
    gateway = GatewayUnderTest()
    with gateway:
        client = GatewayClient(gateway.contact)
        client.health()                      # caches a connection
    with pytest.raises(HttpError) as stale:
        client.submit({"kind": "noop"})
    assert not isinstance(stale.value.__cause__, ConnectionRefusedError)
    with pytest.raises(HttpError) as fresh:
        client.submit({"kind": "noop"})      # no cached connection left
    assert isinstance(fresh.value.__cause__, ConnectionRefusedError)


class Mute:
    """A scripted server that reads whole requests and closes each
    connection without answering; ``requests`` lists what it read."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.2)
        self.contact = "127.0.0.1:%d" % self.listener.getsockname()[1]
        self.requests = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            with conn:
                decoder = HttpDecoder()
                conn.settimeout(2)
                while (request := decoder.next_request()) is None:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    decoder.feed(chunk)
                if request is not None:
                    self.requests.append((request.method, request.path))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=2)
        self.listener.close()


def test_a_post_written_and_unanswered_is_never_sent_twice():
    """It may have been accepted: the client raises instead of sending
    it again. A GET is safe to send again, once, on a fresh connection."""
    with Mute() as server:
        client = GatewayClient(server.contact, timeout=2.0)
        with pytest.raises(HttpError) as lost:
            client.submit({"kind": "noop"})
        assert not isinstance(lost.value.__cause__, ConnectionRefusedError)
        with pytest.raises(HttpError):
            client.health()
        client.close()
    assert server.requests == [("POST", "/jobs"), ("GET", "/health"),
                               ("GET", "/health")]

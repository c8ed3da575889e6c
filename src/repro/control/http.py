"""Stdlib-only HTTP/1.1, sans-IO, on any stream transport.

The control plane's wire format is HTTP/JSON — external users should
need nothing but ``curl`` — and nothing here owns a thread (DESIGN.md
§12). :class:`HttpDecoder` is an incremental request parser (a
slowloris client dribbling bytes costs buffer, never a stalled reactor)
and :class:`HttpConnection` one server connection, answered in request
order: :class:`~repro.control.component.GatewayComponent` keeps one per
peer on either plane, :class:`HttpServer` one per socket of its own.
Its mirror, :class:`HttpClientConnection`, is every client's connection:
a user's, the ME pump's and the blocking client's, on a real socket
(:class:`~repro.control.client.HttpSocket`) or in simulated segments
(:class:`~repro.control.sim.HttpUser`).

Scope is deliberately the gateway's needs, not the RFC's: request line +
headers + ``Content-Length`` bodies, keep-alive by default, bounded
header/body sizes. Anything outside that (chunked encoding, continuation
lines, absurd sizes) is answered with a correct 4xx and a closed
connection — the §2.3 robustness rule: a hostile byte stream must never
take the service down.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.linguafranca.tcp import StreamServer, _Connection
from ..obs.recordlog import _encode

__all__ = [
    "HttpError",
    "HttpRequest",
    "HttpDecoder",
    "HttpClientConnection",
    "HttpConnection",
    "HttpResponseDecoder",
    "HttpServer",
    "json_response",
    "render_request",
    "respond",
    "text_response",
    "error_response",
    "REASONS",
]

#: Request-line + headers may not exceed this many bytes (431-ish, we
#: answer 400: the gateway's legitimate clients send tiny headers).
MAX_HEADER_BYTES = 16 * 1024
#: Default request-body cap; oversized submissions are answered 413.
MAX_BODY_BYTES = 256 * 1024

REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_KNOWN_METHODS = {"GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "PATCH"}


class HttpError(Exception):
    """Client-side failure: a corrupt answer, or a gateway that could
    not be reached or did not answer (``__cause__`` says why)."""


class HttpRequest:
    """One parsed inbound request (or a framing error standing in for
    one: ``error`` carries the status/reason to answer with)."""

    __slots__ = ("method", "path", "headers", "body", "error", "close",
                 "deadline", "parsed")

    def __init__(self, method: str = "", path: str = "",
                 headers: Optional[dict] = None, body: bytes = b"",
                 error: Optional[tuple[int, str]] = None,
                 close: bool = False) -> None:
        self.method = method
        self.path = path
        #: Header names lower-cased; last occurrence wins.
        self.headers = headers if headers is not None else {}
        self.body = body
        self.error = error
        #: Client asked for ``Connection: close`` (or spoke HTTP/1.0).
        self.close = close
        #: When a parked long-poll stops waiting (the app sets it).
        self.deadline: Optional[float] = None
        #: What the app parsed of the request on its first offer (the
        #: app sets it), so a re-offer does not parse it again.
        self.parsed = None


class HttpDecoder:
    """Incremental HTTP/1.1 *request* parser with bounded buffers.

    ``feed(data)`` copies ``data`` (bytes or a view of a reused read
    buffer) onto the stream buffer, ``next_request()`` returns one
    complete request (or ``None`` while more bytes are needed). A framing
    violation yields a request whose ``error`` is set and poisons the
    decoder (:attr:`failed`) — the server answers it and closes; a byte
    stream has no record boundaries to resynchronise on.
    """

    __slots__ = ("_buf", "failed", "max_header", "max_body")

    def __init__(self, max_header: int = MAX_HEADER_BYTES,
                 max_body: int = MAX_BODY_BYTES) -> None:
        self._buf = bytearray()
        self.failed = False
        self.max_header = max_header
        self.max_body = max_body

    def feed(self, data: bytes) -> None:
        if not self.failed:
            self._buf += data

    def buffered(self) -> int:
        """Bytes held, not yet returned as requests."""
        return len(self._buf)

    def _fail(self, status: int, reason: str) -> HttpRequest:
        self.failed = True
        self._buf.clear()
        return HttpRequest(error=(status, reason), close=True)

    def next_request(self) -> Optional[HttpRequest]:
        if self.failed:
            return None
        head_end = self._buf.find(b"\r\n\r\n")
        if head_end < 0:
            if len(self._buf) > self.max_header:
                return self._fail(400, "header block too large")
            return None
        if head_end > self.max_header:
            return self._fail(400, "header block too large")
        head = bytes(self._buf[:head_end])
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            return self._fail(400, "undecodable header block")
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[1].startswith("/"):
            return self._fail(400, "malformed request line")
        method, path, version = parts
        if method not in _KNOWN_METHODS:
            return self._fail(400, f"unknown method {method!r}")
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            return self._fail(400, f"unsupported version {version!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if not sep or not name or name != name.strip():
                return self._fail(400, f"malformed header line {line!r}")
            name, value = name.lower(), value.strip()
            if (name == "content-length"
                    and headers.get(name, value) != value):
                # Two lengths for one body: a request-smuggling shape.
                return self._fail(400, "conflicting content-length")
            headers[name] = value
        if "transfer-encoding" in headers:
            return self._fail(400, "transfer-encoding not supported")
        length = 0
        if "content-length" in headers:
            # RFC 9110: 1*DIGIT. int() alone would also take "+10",
            # "1_0" and non-ASCII digits.
            value = headers["content-length"]
            if not (value.isascii() and value.isdigit()):
                return self._fail(400, "malformed content-length")
            try:
                length = int(value)
            except ValueError:  # more digits than int() will parse
                return self._fail(413, "declared body exceeds any limit")
        if length > self.max_body:
            # Answer before the body even finishes arriving: a client
            # announcing a huge upload is refused at the header.
            return self._fail(413, f"body of {length} bytes exceeds "
                                   f"limit of {self.max_body}")
        body_start = head_end + 4
        if len(self._buf) - body_start < length:
            return None  # body still in flight
        body = bytes(self._buf[body_start:body_start + length])
        del self._buf[:body_start + length]
        connection = headers.get("connection", "").lower()
        close = (connection == "close"
                 or (version == "HTTP/1.0" and connection != "keep-alive"))
        return HttpRequest(method=method, path=path, headers=headers,
                           body=body, close=close)


class HttpResponseDecoder:
    """Incremental HTTP/1.1 *response* parser, the one a
    :class:`HttpClientConnection` reads its answers with. Same contract
    as :class:`HttpDecoder`; returns ``(status, headers, body)``
    tuples."""

    __slots__ = ("_buf", "_dead", "max_body")

    def __init__(self, max_body: int = 8 * 1024 * 1024) -> None:
        self._buf = bytearray()
        self._dead = False
        self.max_body = max_body

    def feed(self, data: bytes) -> None:
        if not self._dead:
            self._buf += data

    def next_response(self) -> Optional[tuple[int, dict, bytes]]:
        if self._dead:
            raise HttpError("response stream is corrupt")
        head_end = self._buf.find(b"\r\n\r\n")
        if head_end < 0:
            if len(self._buf) > MAX_HEADER_BYTES:
                self._dead = True
                raise HttpError("response header block too large")
            return None
        lines = bytes(self._buf[:head_end]).decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            self._dead = True
            raise HttpError(f"malformed status line {lines[0]!r}")
        try:
            status = int(parts[1])
        except ValueError:
            self._dead = True
            raise HttpError(f"malformed status {parts[1]!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.lower()] = value.strip()
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):  # RFC 9110 1*DIGIT
            self._dead = True
            raise HttpError("malformed content-length")
        length = int(length)
        if length > self.max_body:
            self._dead = True
            raise HttpError("response body too large")
        body_start = head_end + 4
        if len(self._buf) - body_start < length:
            return None
        body = bytes(self._buf[body_start:body_start + length])
        del self._buf[:body_start + length]
        return status, headers, body


def _render(status: int, body: bytes, content_type: str,
            close: bool) -> bytes:
    reason = REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n")
    return head.encode("latin-1") + body


def render_request(method: str, path: str, doc: Optional[dict],
                   host: str) -> bytes:
    """One request frame: a JSON ``doc`` as its body, a
    ``Content-Length`` on every POST. The one request renderer, for
    real sockets and simulated segments alike."""
    head = f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
    if doc is not None:
        body = _encode(doc).encode("ascii")
        head += "Content-Type: application/json\r\n"
    else:
        body = b""
    if method == "POST":
        head += f"Content-Length: {len(body)}\r\n"
    return (head + "\r\n").encode("latin-1") + body


def json_response(status: int, obj, close: bool = False) -> bytes:
    """A complete JSON response frame (sorted keys: byte-stable). ``obj``
    is a JSON document, or ``bytes``: a body this function would have
    rendered, newline included, served as is."""
    body = (obj if isinstance(obj, bytes)
            else (_encode(obj) + "\n").encode("ascii"))
    return _render(status, body, "application/json", close)


def text_response(status: int, text: str,
                  content_type: str = "text/plain; charset=utf-8",
                  close: bool = False) -> bytes:
    """A complete plain-text response frame (Prometheus exposition, the
    JSONL /events feed)."""
    return _render(status, text.encode("utf-8"), content_type, close)


def error_response(status: int, reason: str) -> bytes:
    """A complete JSON error frame; always closes the connection."""
    return json_response(status, {"error": reason}, close=True)


#: The application callback: a complete request in, a complete response
#: frame out (build it with :func:`json_response` /
#: :func:`text_response`) — or ``None`` to *park* the request for
#: long-polling: its connection holds it and offers it to the app again
#: on its next :meth:`HttpConnection.serve`, until the app answers.
HttpApp = Callable[[HttpRequest], Optional[bytes]]


def respond(app: HttpApp, request: HttpRequest) -> Optional[bytes]:
    """The frame answering one decoded ``request``: its framing error's
    4xx, else the app's frame, a 500 if the app raised, or ``None`` when
    the app parks it."""
    if request.error is not None:
        return error_response(*request.error)
    try:
        return app(request)
    except Exception:  # noqa: BLE001 — robustness boundary
        return error_response(500, "internal error")


class HttpConnection:
    """One server-side HTTP/1.1 connection, sans-IO: the bytes fed to
    :attr:`decoder`, and at most one :attr:`parked` request. Answers go
    back in request order: :meth:`serve` answers the parked request,
    then each pipelined one, and stops at the first the app parks or
    that ends the connection (:attr:`closed`)."""

    __slots__ = ("decoder", "parked", "closed")

    def __init__(self) -> None:
        self.decoder = HttpDecoder()
        self.parked: Optional[HttpRequest] = None
        self.closed = False

    def serve(self, app: HttpApp) -> list:
        """The response frames ready to go, in request order. Nothing
        drains the decoder while a request is parked: past one request's
        bounds behind it, the parked request is answered 400 and the
        connection closes."""
        frames = []
        request, self.parked = self.parked, None
        decoder = self.decoder
        if request is not None and (decoder.buffered()
                                    > decoder.max_header + decoder.max_body):
            request = decoder._fail(
                400, "too many bytes pipelined behind a parked request")
        while not self.closed:
            request = request or decoder.next_request()
            if request is None:
                break
            response = respond(app, request)
            if response is None:
                self.parked = request
                break
            frames.append(response)
            self.closed = request.close
            request = None
        return frames


class HttpClientConnection:
    """One client-side HTTP/1.1 keep-alive connection, sans-IO: the
    mirror of :class:`HttpConnection`. A *conversation* says what to ask
    and takes the answers: ``next_request()`` gives ``(kind, method,
    path, doc)``, or ``None`` once it has nothing more to ask, and
    ``answer(kind, status, body, now)`` takes the reply. One request is
    in flight at a time; a closing answer starts a fresh decoder, for
    the next connection."""

    __slots__ = ("host", "decoder", "inflight")

    def __init__(self, host: str) -> None:
        self.host = host
        self.decoder = HttpResponseDecoder()
        #: ``(conversation, kind)`` of the request awaiting its answer.
        self.inflight: Optional[tuple] = None

    def request(self, conversation) -> Optional[bytes]:
        """The frame of ``conversation``'s next request, or ``None``."""
        request = conversation.next_request()
        if request is None:
            return None
        kind, method, path, doc = request
        self.inflight = (conversation, kind)
        return render_request(method, path, doc, self.host)

    def receive(self, data, now: float) -> Optional[tuple]:
        """Feed bytes of the answer. Once it is whole, hand it to the
        conversation that asked and return ``(what its answer returned,
        whether the answer closes the connection)``; ``None`` until then.
        A corrupt answer raises :class:`HttpError`."""
        if self.inflight is None:
            raise HttpError("bytes with no request in flight")
        self.decoder.feed(data)
        response = self.decoder.next_response()
        if response is None:
            return None
        status, headers, body = response
        (conversation, kind), self.inflight = self.inflight, None
        closing = headers.get("connection", "").lower() == "close"
        if closing:
            self.decoder = HttpResponseDecoder()
        return conversation.answer(kind, status, body, now), closing


class HttpServer(StreamServer):
    """An HTTP listener with a reactor of its own: one
    :class:`HttpConnection` per socket, served through ``app`` as its
    bytes arrive, one batched flush per read; a closing answer closes
    the socket once flushed. It does not hold long-polls: a request the
    app parks is answered 500 and its connection closed (the gateway
    node parks under ``GatewayComponent``)."""

    def __init__(self, host: str, port: int, app: HttpApp) -> None:
        self.app = app
        self.protocol_errors = 0
        super().__init__(host, port)

    def _open(self, conn: _Connection) -> HttpConnection:
        return HttpConnection()

    def _received(self, conn: _Connection, data: memoryview) -> None:
        if conn.close_when_flushed:  # bytes after the last answer: dropped
            return
        http = conn.decoder
        http.decoder.feed(data)
        conn.out.extend(http.serve(self.app))
        if http.parked is not None:
            http.parked, http.closed = None, True
            conn.out.append(error_response(500, "long-poll not served here"))
        if http.closed:
            conn.close_when_flushed = True
            self.protocol_errors += http.decoder.failed
        self._flush(conn)

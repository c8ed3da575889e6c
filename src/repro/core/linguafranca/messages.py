"""Typed messages carried by the lingua franca.

A :class:`Message` is a typed record with a JSON-safe payload dictionary.
The paper's prototype used ad-hoc C structs per message type; we keep the
type-tag-plus-record design but encode records as UTF-8 JSON (the paper
rejected XDR for availability reasons — any portable self-describing
encoding serves the same role).

``reply_to``/``req_id`` implement the request–response correlation the
EveryWare servers use: every request carries a fresh ``req_id``, the reply
echoes it in ``reply_to``, and the response-time forecaster keys its event
streams on ``(server address, message type)`` (§2.2 dynamic benchmarking).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Optional

from .packets import PacketError, decode_packet_view, encode_packet, packet_size

__all__ = ["Message", "MessageError", "fresh_req_id"]

_req_counter = itertools.count(1)


def fresh_req_id() -> int:
    """Process-wide unique request id."""
    return next(_req_counter)


#: Body text by content: a body built afresh each period (gossip digests
#: and their acks, polls, heartbeats) renders once, whoever sends it and
#: whatever header it carries — the header is spliced around the text.
#: Only a string-keyed body whose values are all scalars of a
#: ``_KEYABLE`` type is keyed, with those types in the key, so equal keys
#: mean equal JSON (``True == 1 == 1.0`` render three ways); a float body
#: holding a zero is not keyed, since ``0.0 == -0.0``. Deciding it raises
#: nothing. Building the key costs about what rendering a flat body
#: does: the cache saves renders, and sizing a send instead of framing
#: it (:meth:`Message.wire_size`) is where the time goes.
_body_cache: dict[tuple, str] = {}
_BODY_CACHE_MAX = 2048
_KEYABLE = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))
#: ``len('{"s":' ',"b":' '}')``: the record text around its parts.
_RECORD_BRACES = 11

#: The one compact JSON encoder every record goes through, built at
#: import: ``json.dumps`` with ``separators=`` builds a ``JSONEncoder`` per
#: call, and ``JSONEncoder.encode`` builds its C encoder per call.
#: ``"".join(_iterencode(record, 0))`` is ``json.dumps(record,
#: separators=(",", ":"))`` to the byte. Built without the per-call
#: circular-reference markers, a circular body fails as a RecursionError
#: instead of a ValueError. Without json's C accelerator the encoder's
#: own pure-Python path serves.
_iterencode = (json.JSONEncoder(separators=(",", ":")).iterencode
               if c_make_encoder is None else c_make_encoder(
                   None, json.JSONEncoder().default, encode_basestring_ascii,
                   None, ":", ",", False, False, True))


class MessageError(Exception):
    """Malformed message content."""


#: What parsing a malformed wire field raises: a missing key or index, a
#: wrong type, a non-number string, or a number ``int()``/``float()``
#: cannot take (JSON's ``Infinity``, ``NaN`` or ``1e999`` to ``int``, a
#: 400-digit integer to ``float``). The gossip frame parsers skip an
#: entry that raises one, and the live collector a heartbeat: robustness
#: over strictness.
MALFORMED = (LookupError, TypeError, ValueError, OverflowError)


def _render(value: Any) -> str:
    try:
        return "".join(_iterencode(value, 0))
    except (TypeError, ValueError, RecursionError) as exc:
        raise MessageError(f"unserializable message body: {exc}") from exc


def _body_text(body: dict) -> str:
    """``body`` as JSON text, from :data:`_body_cache` when keyable."""
    values = body.values()
    if not _KEYABLE.issuperset(map(type, values)):
        return _render(body)
    types = tuple(map(type, values))
    if float in types and 0.0 in values:
        return _render(body)
    key = (tuple(body.items()), types)
    text = _body_cache.get(key)
    if text is None:
        text = _render(body)
        # Only string-keyed bodies are stored, so a lookup under other
        # keys always misses: 1, 1.0 and True are one dict key but three
        # JSON keys.
        if _STR.issuperset(map(type, body)):
            if len(_body_cache) >= _BODY_CACHE_MAX:
                _body_cache.clear()
            _body_cache[key] = text
    return text


def _header_value(value: Any) -> str:
    return repr(value) if type(value) is int else _render(value)


class _Framed:
    #: ``(header, size, frame or None)``, kept per header. No dataclass
    #: field: eq/repr/copy/pickle skip it.
    __slots__ = ("_frame",)


@dataclass(slots=True)
class Message(_Framed):
    """One lingua-franca record.

    ``sender`` is the string form of the sender's contact address
    ("host/port"); components use it to reply. ``body`` must be
    JSON-serializable and is frozen once sent (DESIGN §7): its size and
    frame are kept until a header field (``sender``, ``req_id``,
    ``reply_to``, ``trace``) changes, so one message sent N times is
    rendered once.
    """

    mtype: str
    sender: str
    body: dict = field(default_factory=dict)
    req_id: Optional[int] = None
    reply_to: Optional[int] = None
    #: Causal trace context ``(trace_id, parent span_id)`` stamped by the
    #: sending driver when tracing is enabled (wire field ``"t"``). See
    #: :mod:`repro.core.telemetry`.
    trace: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        self._frame = None

    def __getstate__(self):  # the fields only: the frame is a cache
        return None, {"_frame": None, **{name: getattr(self, name)
                                         for name in Message.__slots__}}

    def wire_size(self) -> int:
        """``len(self.encode())``, raising what it raises, without
        building the frame: what the simulated network charges a send."""
        header = (self.sender, self.req_id, self.reply_to, self.trace)
        kept = self._frame
        if kept is None or kept[0] != header:
            sender, body, fields = self._parts()
            kept = self._frame = (header, packet_size(
                self.mtype, _RECORD_BRACES + len(sender) + len(body)
                + len(fields)), None)
        return kept[1]

    def encode(self) -> bytes:
        """Serialize to a framed packet."""
        header = (self.sender, self.req_id, self.reply_to, self.trace)
        kept = self._frame
        if kept is None or kept[0] != header or kept[2] is None:
            sender, body, fields = self._parts()
            data = encode_packet(self.mtype, f'{{"s":{sender},"b":{body}'
                                             f'{fields}}}'.encode("ascii"))
            kept = self._frame = (header, len(data), data)
        return kept[2]

    def _parts(self) -> tuple[str, str, str]:
        """The record ``{"s":SENDER,"b":BODY FIELDS}``'s sender, body and
        optional fields (``,"q":…``, ``,"r":…``, ``,"t":[…]``) as text.
        The text is ASCII (the encoder escapes the rest), so its length
        is its byte count."""
        body = _body_text(self.body)
        sender = self.sender
        sender = (encode_basestring_ascii(sender) if type(sender) is str
                  else _render(sender))
        req_id, reply_to, trace = self.req_id, self.reply_to, self.trace
        if req_id is None and reply_to is None and trace is None:
            return sender, body, ""
        fields = ""
        try:  # an int too long for str() fails as it does in the body
            if req_id is not None:
                fields += ',"q":' + _header_value(req_id)
            if reply_to is not None:
                fields += ',"r":' + _header_value(reply_to)
            if trace is not None:
                first, second = trace[0], trace[1]
                fields += (f',"t":[{first},{second}]'
                           if type(first) is int and type(second) is int
                           else ',"t":' + _render([first, second]))
        except ValueError as exc:
            raise MessageError(f"unserializable message header: {exc}") from exc
        return sender, body, fields

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        """Parse a single framed packet into a Message.

        Zero-copy: the payload is parsed through a memoryview into
        ``data`` (:func:`decode_packet_view`), never materialized as an
        intermediate ``bytes`` object. The TCP transport parses every
        frame; a simulated delivery comes here only when no typed record
        rode along with its bytes (:meth:`SimEndpoint.message_of`)."""
        mtype, payload = decode_packet_view(data)
        return cls.from_parts(mtype, payload)

    @classmethod
    def from_parts(cls, mtype: str, payload) -> "Message":
        """Build a Message from an already-deframed (mtype, payload).

        ``payload`` may be ``bytes``, ``bytearray``, or a ``memoryview``
        (the zero-copy decode paths pass views); it is consumed before
        this returns, never retained."""
        try:
            record = json.loads(str(payload, "utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MessageError(f"bad message payload: {exc}") from exc
        if not isinstance(record, dict) or "s" not in record or "b" not in record:
            raise MessageError("message record missing required fields")
        body = record["b"]
        if not isinstance(body, dict):
            raise MessageError("message body must be an object")
        if record["s"].__class__ is not str:  # the contact replies go to
            raise MessageError("message sender must be a string")
        trace = None
        raw_trace = record.get("t")
        if raw_trace is not None:  # rare: only traced runs pay validation
            if (isinstance(raw_trace, (list, tuple)) and len(raw_trace) == 2
                    and all(isinstance(x, int) for x in raw_trace)):
                trace = (raw_trace[0], raw_trace[1])
        return cls(
            mtype=mtype,
            sender=record["s"],
            body=body,
            req_id=record.get("q"),
            reply_to=record.get("r"),
            trace=trace,
        )

    def reply(self, mtype: str, sender: str, body: Optional[dict] = None) -> "Message":
        """Construct the response correlated to this request."""
        return Message(
            mtype=mtype,
            sender=sender,
            body=body if body is not None else {},
            reply_to=self.req_id,
        )


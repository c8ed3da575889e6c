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

This module is the program's one JSON renderer: :func:`_compact_encoder`
builds the two compact encoders, the wire's (keys in insertion order)
and the record log's (keys sorted, :mod:`repro.obs.recordlog`), and
every byte count of a JSON value renders through the first. A message
renders its body when it is first sized or framed under a header, and
again only when a header field changes; there is no cache of bodies by
content (DESIGN §7 "Render a body once").
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Optional

from .packets import PacketError, decode_packet_view, encode_packet, packet_size

__all__ = ["Message", "MessageError", "fresh_req_id"]

_req_counter = itertools.count(1)


def fresh_req_id() -> int:
    """Process-wide unique request id."""
    return next(_req_counter)


#: ``len('{"s":' ',"b":' '}')``: the record text around its parts.
_RECORD_BRACES = 11


def _compact_encoder(sort_keys: bool):
    """A compact JSON encoder, to be built once, at import:
    ``json.dumps`` with ``separators=`` builds a ``JSONEncoder`` per
    call, and ``JSONEncoder.encode`` builds its C encoder per call.
    ``"".join(encoder(value, 0))`` is ``json.dumps(value,
    sort_keys=sort_keys, separators=(",", ":"))`` to the byte. Built
    without the per-call circular-reference markers, a circular value
    fails as a RecursionError instead of a ValueError. Without json's C
    accelerator the encoder's own pure-Python path serves."""
    if c_make_encoder is None:
        return json.JSONEncoder(sort_keys=sort_keys,
                                separators=(",", ":")).iterencode
    return c_make_encoder(None, json.JSONEncoder().default,
                          encode_basestring_ascii, None, ":", ",",
                          sort_keys, False, True)


#: The wire's encoder, keys in insertion order: every record, and every
#: byte count the program keeps of a JSON value (:func:`_json`).
_wire_encoder = _compact_encoder(False)
#: The record log's encoder, keys sorted (:func:`repro.obs.recordlog._encode`).
_sorted_encoder = _compact_encoder(True)


class MessageError(Exception):
    """Malformed message content."""


#: What parsing a malformed wire field raises: a missing key or index, a
#: wrong type, a non-number string, or a number ``int()``/``float()``
#: cannot take (JSON's ``Infinity``, ``NaN`` or ``1e999`` to ``int``, a
#: 400-digit integer to ``float``). The gossip frame parsers skip an
#: entry that raises one, and the live collector a heartbeat: robustness
#: over strictness.
MALFORMED = (LookupError, TypeError, ValueError, OverflowError)


def wire_stamp(value: Any) -> float:
    """A wire timestamp as a finite float; raises one of :data:`MALFORMED`
    otherwise (an ``inf`` or NaN stamp would win, or tie, every
    comparison it meets)."""
    stamp = float(value)
    if not math.isfinite(stamp):
        raise ValueError(f"non-finite stamp {value!r}")
    return stamp


def _json(value: Any) -> str:
    """``value`` as compact JSON, keys in insertion order: the text a
    record carries and a sizer counts (``json.dumps(value,
    separators=(",", ":"))``, raising what the encoder raises)."""
    return "".join(_wire_encoder(value, 0))


def _render(value: Any) -> str:
    try:
        return _json(value)
    except (TypeError, ValueError, RecursionError) as exc:
        raise MessageError(f"unserializable message body: {exc}") from exc


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
        body = _render(self.body)
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


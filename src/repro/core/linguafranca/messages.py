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

from .packets import PacketError, decode_packet_view, encode_packet

__all__ = ["Message", "MessageError", "fresh_req_id"]

_req_counter = itertools.count(1)


def fresh_req_id() -> int:
    """Process-wide unique request id."""
    return next(_req_counter)


#: Encoded-bytes cache for identical control messages built afresh each
#: period (gossip polls, scheduler polls, registry heartbeats); one object
#: sent again keeps its own frame instead. Keyed on every field that feeds
#: the wire bytes — including the body's *insertion order*, since the
#: encoder preserves it — so a hit returns exactly the bytes a fresh
#: encode would produce. Only a body (string-keyed, as JSON objects are)
#: whose values are all scalars of a ``_KEYABLE`` type is keyed, with
#: those types in the key, so equal keys mean equal JSON (``True == 1 ==
#: 1.0`` encode three ways); a float body holding a zero is not keyed,
#: since ``0.0 == -0.0``. Deciding it raises nothing. Anything carrying a
#: ``req_id``/``reply_to`` skips the cache: correlated messages are unique
#: per conversation, so caching them would be pure miss overhead. Trace
#: contexts are likewise unique per send, so traced messages skip the
#: cache too.
_encode_cache: dict[tuple, bytes] = {}
_ENCODE_CACHE_MAX = 2048
_KEYABLE = frozenset((str, int, float, bool, type(None)))

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


class _Framed:
    __slots__ = ("_frame",)  # no dataclass field: eq/repr/pickle skip it


@dataclass(slots=True)
class Message(_Framed):
    """One lingua-franca record.

    ``sender`` is the string form of the sender's contact address
    ("host/port"); components use it to reply. ``body`` must be
    JSON-serializable and is frozen once encoded (DESIGN §7): the frame
    is kept until a header field (``sender``, ``req_id``, ``reply_to``,
    ``trace``) changes, so one message sent N times is encoded once.
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

    def __getstate__(self):  # the fields only: the frame is a cache
        return None, {name: getattr(self, name) for name in Message.__slots__}

    def encode(self) -> bytes:
        """Serialize to a framed packet."""
        header = (self.sender, self.req_id, self.reply_to, self.trace)
        frame = getattr(self, "_frame", None)
        if frame is None or frame[0] != header:
            frame = self._frame = (header, self._encode())
        return frame[1]

    def _encode(self) -> bytes:
        key = None
        values = self.body.values()
        if (self.req_id is None and self.reply_to is None
                and self.trace is None and _KEYABLE.issuperset(map(type, values))):
            # Built only for a keyable body: a tuple per list-bearing body
            # as well cost the SC98 world 2 MB of peak RSS.
            types = tuple(map(type, values))
            if float not in types or 0.0 not in values:
                key = (self.mtype, self.sender, tuple(self.body.items()), types)
                cached = _encode_cache.get(key)
                if cached is not None:
                    return cached
        record: dict[str, Any] = {"s": self.sender, "b": self.body}
        if self.req_id is not None:
            record["q"] = self.req_id
        if self.reply_to is not None:
            record["r"] = self.reply_to
        if self.trace is not None:
            record["t"] = [self.trace[0], self.trace[1]]
        try:
            payload = "".join(_iterencode(record, 0)).encode("utf-8")
        except (TypeError, ValueError, RecursionError) as exc:
            raise MessageError(f"unserializable message body: {exc}") from exc
        data = encode_packet(self.mtype, payload)
        if key is not None:
            if len(_encode_cache) >= _ENCODE_CACHE_MAX:
                _encode_cache.clear()
            _encode_cache[key] = data
        return data

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


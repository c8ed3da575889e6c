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
from typing import Any, Callable, Optional

from .packets import PacketError, decode_packet_view, encode_packet

__all__ = ["Message", "MessageError", "TypeRegistry", "fresh_req_id"]

_req_counter = itertools.count(1)


def fresh_req_id() -> int:
    """Process-wide unique request id."""
    return next(_req_counter)


#: Encoded-bytes cache for repeated identical control messages (gossip
#: probes, scheduler polls, registry heartbeats re-sent unchanged every
#: period). Keyed on every field that feeds the wire bytes — including the
#: body's *insertion order*, since json.dumps preserves it — so a hit
#: returns exactly the bytes a fresh encode would produce. Messages whose
#: body holds unhashable values (nested dicts/lists) skip the cache, as
#: does anything carrying a ``req_id``/``reply_to``: correlated messages
#: are unique per conversation, so caching them would be pure miss
#: overhead. Trace contexts are likewise unique per send, so traced
#: messages skip the cache too.
_encode_cache: dict[tuple, bytes] = {}
_ENCODE_CACHE_MAX = 2048


class MessageError(Exception):
    """Malformed message content."""


@dataclass(slots=True)
class Message:
    """One lingua-franca record.

    ``sender`` is the string form of the sender's contact address
    ("host/port"); components use it to reply. ``body`` must be
    JSON-serializable.
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

    def encode(self) -> bytes:
        """Serialize to a framed packet."""
        key = None
        if self.req_id is None and self.reply_to is None and self.trace is None:
            try:
                key = (self.mtype, self.sender, tuple(self.body.items()))
                cached = _encode_cache.get(key)
                if cached is not None:
                    return cached
            except TypeError:  # unhashable body value: encode uncached
                key = None
        record: dict[str, Any] = {"s": self.sender, "b": self.body}
        if self.req_id is not None:
            record["q"] = self.req_id
        if self.reply_to is not None:
            record["r"] = self.reply_to
        if self.trace is not None:
            record["t"] = [self.trace[0], self.trace[1]]
        try:
            payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
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


class TypeRegistry:
    """Optional per-deployment registry of known message types.

    Components can register a validator per type; endpoints with a registry
    reject unknown or invalid messages at the edge instead of deep in
    handler code.
    """

    def __init__(self) -> None:
        self._validators: dict[str, Callable[[dict], None]] = {}

    def register(
        self, mtype: str, validator: Optional[Callable[[dict], None]] = None
    ) -> None:
        if mtype in self._validators:
            raise MessageError(f"message type {mtype!r} already registered")
        self._validators[mtype] = validator or (lambda body: None)

    def known(self, mtype: str) -> bool:
        return mtype in self._validators

    def validate(self, message: Message) -> None:
        """Raise MessageError if the message is unknown or invalid."""
        validator = self._validators.get(message.mtype)
        if validator is None:
            raise MessageError(f"unknown message type {message.mtype!r}")
        try:
            validator(message.body)
        except MessageError:
            raise
        except Exception as exc:
            raise MessageError(f"invalid {message.mtype!r} body: {exc}") from exc

    def types(self) -> list[str]:
        return sorted(self._validators)

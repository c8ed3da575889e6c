"""Packet framing for the EveryWare lingua franca.

The paper (§2.1) implements "rudimentary packet semantics to enable message
typing and delineate record boundaries within each stream-oriented TCP
communication", inspired by netperf and taken from the NWS implementation.
This module is that wire format:

::

    +-------+---------+-------+----------+-------------+----------+
    | magic | version | tlen  | plen     | mtype bytes | payload  |
    | 4 B   | 1 B     | 2 B   | 4 B      | tlen B      | plen B   |
    +-------+---------+-------+----------+-------------+----------+
    | crc32 of everything above, 4 B                              |
    +-------------------------------------------------------------+

All integers are big-endian ("network order"). The format deliberately
avoids anything machine-specific — the paper's authors rejected XDR for
portability; we use explicit byte packing for the header and UTF-8 text
for the type name.

:class:`PacketDecoder` consumes a byte stream incrementally, which is what
the TCP transport needs: record boundaries do not align with ``recv``
boundaries.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, Optional

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER",
    "MAX_TYPE_LEN",
    "MAX_PAYLOAD_LEN",
    "PacketError",
    "encode_packet",
    "packet_size",
    "decode_packet",
    "decode_packet_view",
    "PacketDecoder",
]

MAGIC = b"EVRW"
VERSION = 1
HEADER = struct.Struct("!4sBHI")  # magic, version, type length, payload length
TRAILER = struct.Struct("!I")  # crc32
MAX_TYPE_LEN = 256
MAX_PAYLOAD_LEN = 16 * 1024 * 1024
_FRAMING = HEADER.size + TRAILER.size


class PacketError(Exception):
    """Malformed or oversized packet data."""


def _type_bytes(mtype: str, plen: int) -> bytes:
    """``mtype`` as framed, once the type and a ``plen``-byte payload
    pass the limits."""
    tbytes = mtype.encode("utf-8")
    if not tbytes:
        raise PacketError("empty message type")
    if len(tbytes) > MAX_TYPE_LEN:
        raise PacketError(f"message type too long ({len(tbytes)} bytes)")
    if plen > MAX_PAYLOAD_LEN:
        raise PacketError(f"payload too large ({plen} bytes)")
    return tbytes


def encode_packet(mtype: str, payload: bytes) -> bytes:
    """Frame one typed record."""
    tbytes = _type_bytes(mtype, len(payload))
    head = HEADER.pack(MAGIC, VERSION, len(tbytes), len(payload))
    # Run the crc over the parts and join once, instead of materializing
    # the unframed body just to checksum it and then copying it again.
    crc = zlib.crc32(payload, zlib.crc32(tbytes, zlib.crc32(head)))
    return b"".join((head, tbytes, payload, TRAILER.pack(crc & 0xFFFFFFFF)))


def packet_size(mtype: str, plen: int) -> int:
    """``len(encode_packet(mtype, payload))`` for any ``plen``-byte
    payload, with the same checks, without building the frame."""
    return _FRAMING + len(_type_bytes(mtype, plen)) + plen


def decode_packet_view(data: bytes) -> tuple[str, memoryview]:
    """Decode exactly one packet without copying the payload.

    Single-pass: validates and slices ``data`` directly instead of
    round-tripping it through a :class:`PacketDecoder` buffer (the stream
    decoder exists for the TCP transport, where record boundaries do not
    align with ``recv`` boundaries — here the frame is already exact).

    The returned payload is a :class:`memoryview` into ``data``; it stays
    valid for as long as ``data`` does. Callers that parse the payload
    immediately (:meth:`Message.decode`) never materialize a payload copy;
    callers that need to keep the bytes use :func:`decode_packet`.
    """
    if len(data) < HEADER.size:
        raise PacketError("truncated packet")
    magic, version, tlen, plen = HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise PacketError(f"bad magic {bytes(magic)!r}")
    if version != VERSION:
        raise PacketError(f"unsupported version {version}")
    if tlen == 0 or tlen > MAX_TYPE_LEN:
        raise PacketError(f"bad type length {tlen}")
    if plen > MAX_PAYLOAD_LEN:
        raise PacketError(f"bad payload length {plen}")
    total = HEADER.size + tlen + plen + TRAILER.size
    if len(data) < total:
        raise PacketError("truncated packet")
    if len(data) > total:
        raise PacketError(f"{len(data) - total} trailing bytes after packet")
    body_end = total - TRAILER.size
    (crc,) = TRAILER.unpack_from(data, body_end)
    view = memoryview(data)
    actual = zlib.crc32(view[:body_end]) & 0xFFFFFFFF
    if crc != actual:
        raise PacketError(f"crc mismatch (got {crc:#x}, want {actual:#x})")
    try:
        mtype = str(view[HEADER.size : HEADER.size + tlen], "utf-8")
    except UnicodeDecodeError as exc:
        raise PacketError("message type is not valid UTF-8") from exc
    return mtype, view[HEADER.size + tlen : body_end]


def decode_packet(data: bytes) -> tuple[str, bytes]:
    """Decode exactly one packet; raises PacketError on any mismatch.

    Like :func:`decode_packet_view` but returns an owned payload copy."""
    mtype, payload = decode_packet_view(data)
    return mtype, bytes(payload)


def _owned_record(mtype: str, payload: memoryview) -> tuple[str, bytes]:
    return mtype, bytes(payload)


class PacketDecoder:
    """Incremental stream decoder.

    Feed arbitrary chunks with :meth:`feed`; pull complete packets with
    :meth:`next_packet` or iterate :meth:`packets`.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> None:
        """Copy ``data`` onto the stream buffer; the caller may reuse it
        (the reactor feeds views of one read buffer)."""
        self._buf.extend(data)

    def _frame(self) -> Optional[tuple[int, int]]:
        """Validate the header of the buffered frame; (tlen, total) when a
        complete frame is buffered, None when more data is needed."""
        buf = self._buf
        if len(buf) < HEADER.size:
            return None
        magic, version, tlen, plen = HEADER.unpack_from(buf, 0)
        if magic != MAGIC:
            raise PacketError(f"bad magic {bytes(magic)!r}")
        if version != VERSION:
            raise PacketError(f"unsupported version {version}")
        if tlen == 0 or tlen > MAX_TYPE_LEN:
            raise PacketError(f"bad type length {tlen}")
        if plen > MAX_PAYLOAD_LEN:
            raise PacketError(f"bad payload length {plen}")
        total = HEADER.size + tlen + plen + TRAILER.size
        if len(buf) < total:
            return None
        return tlen, total

    def next_record(self, build):
        """Parse the next complete packet in place: call
        ``build(mtype, payload_view)`` on a zero-copy view of the payload
        and return its result, or None if more data is needed.

        ``build`` must not retain the view — it only spans the frame's
        slot in the stream buffer. The frame is consumed even when
        ``build`` raises (a malformed *record* must not wedge the stream
        the way a malformed *frame* does), so consumers can count the
        error and keep reading. PacketError (corrupt frame) leaves the
        buffer untouched: the only safe recovery is dropping the stream.
        """
        frame = self._frame()
        if frame is None:
            return None
        tlen, total = frame
        buf = self._buf
        body_end = total - TRAILER.size
        (crc,) = TRAILER.unpack_from(buf, body_end)
        consume = False
        payload = None
        try:
            # Every view must be released before `del buf[:total]` resizes
            # the bytearray: the with-block covers the base view, and the
            # payload slice is released explicitly — when ``build`` raises,
            # the exception's traceback pins build's frame (and with it the
            # slice), so refcounting alone won't drop the buffer export.
            with memoryview(buf) as view:
                actual = zlib.crc32(view[:body_end]) & 0xFFFFFFFF
                if crc != actual:
                    raise PacketError(
                        f"crc mismatch (got {crc:#x}, want {actual:#x})"
                    )
                try:
                    mtype = str(view[HEADER.size : HEADER.size + tlen], "utf-8")
                except UnicodeDecodeError as exc:
                    raise PacketError("message type is not valid UTF-8") from exc
                payload = view[HEADER.size + tlen : body_end]
                consume = True
                return build(mtype, payload)
        finally:
            if payload is not None:
                payload.release()
            if consume:
                del buf[:total]

    def next_packet(self) -> Optional[tuple[str, bytes]]:
        """Return the next complete (mtype, payload), or None if more data
        is needed. Raises PacketError if the stream is corrupt."""
        return self.next_record(_owned_record)

    def packets(self) -> Iterator[tuple[str, bytes]]:
        """Yield all currently complete packets."""
        while True:
            pkt = self.next_packet()
            if pkt is None:
                return
            yield pkt

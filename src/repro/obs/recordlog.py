"""The one record log: line codec, flushed appender, reader.

The job journal (:class:`~repro.control.workqueue.FileJournal` *is*
:class:`RecordLog`; the twin's ``MemoryJournal`` is its
:meth:`~RecordLog.in_memory` form), the flight-recorder spool and the
``/events`` body are the paper's "message typing, record boundaries"
over a byte stream (PAPER.md §1) in one form: a JSON object per
newline-terminated line.
The three decisions they share are made here and nowhere else:

* **line format** — :func:`encode_line`: sorted keys, compact
  separators, ``"\\n"``; byte-stable for equal records. The encoder is
  the codec's sorted-keys one: :mod:`repro.core.linguafranca.messages`
  builds both of the program's compact encoders, and this module builds
  none. A writer that already rendered a record's values with the same
  encoder (the job store splices its lines from them) appends the line
  itself.
* **durability point** — :class:`RecordLog` writes everything a call was
  given, then calls ``flush()`` once. No fsync: the threat model is the
  *process* dying (chaos SIGKILL, supervisor restart), and flushed bytes
  live in the kernel whatever happens to the process. Machine-crash
  durability would add an fsync per accept and is not what the live
  plane simulates.
* **damage rule** — a record exists iff its line is newline-terminated
  and parses as a JSON object under strict UTF-8. An unterminated final
  line is a *torn tail*, the write a crash cut short: never acknowledged
  (the 201 leaves after the flush), so :func:`read_records` ignores it
  even if it happens to parse, and the appender cuts it off before its
  first write — the next record would otherwise be glued onto it and
  lost with it. Any other unusable line is skipped and counted, never
  fatal (§3.1: never trust what you are handed).
"""

from __future__ import annotations

import io
import json
import os
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional, Union

from ..core.linguafranca.messages import _sorted_encoder

__all__ = ["RecordLog", "encode_line", "read_records"]


def _encode(value) -> str:
    """``value`` as compact sort-keys JSON (ASCII: non-ASCII escaped):
    ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` to the
    byte, through the sorted-keys encoder the codec builds at import.
    The record log, the job store's rendered fragments and every JSON
    response share it."""
    return "".join(_sorted_encoder(value, 0))


#: What :func:`_encode` writes for a ``str`` (the encoder is built with
#: it), called without the encoder's per-call set-up.
_encode_str = encode_basestring_ascii


def encode_line(record: dict) -> str:
    """One record as its log line (byte-stable key order)."""
    return _encode(record) + "\n"


def _line(record: Union[dict, str]) -> str:
    """A record's log line; a ``str`` is a line already rendered (by
    :func:`encode_line` or spliced from fragments it rendered)."""
    return record if isinstance(record, str) else encode_line(record)


def read_records(path: str) -> tuple[list[dict], int]:
    """Every record in the log at ``path`` plus the count of damaged
    lines skipped; a missing file is an empty log."""
    log = RecordLog(path)
    records = [record for _, _, record in log.scan()]
    return records, log.skipped


def _last_record_end(fh) -> int:
    """Where the last newline-terminated line of the binary file ``fh``
    ends, looking at the tail only — restart cost must not grow with
    history."""
    keep = fh.seek(0, os.SEEK_END)
    while keep > 0:
        start = max(keep - 4096, 0)
        fh.seek(start)
        keep = start + fh.read(keep - start).rfind(b"\n") + 1
        if keep > start:
            break  # found the last newline; else keep == start, go on
    return keep


def _open_after_last_record(path: str):
    """Open ``path`` for append with any torn tail cut off."""
    fh = open(path, "ab")  # write-only: "a+b" pays a seek per flush
    with open(path, "rb") as tail:
        fh.truncate(_last_record_end(tail))
    return fh


class RecordLog:
    """Append-only record file, opened lazily, flushed once per call.

    Every line stays where it was written, so a record — or a byte range
    inside one — is addressed by its file offset: :meth:`append` returns
    it, :meth:`scan` yields it and :meth:`read` reads a range back with
    one positional read. :meth:`in_memory` builds the same log over
    bytes held in this process."""

    def __init__(self, path: Optional[str]) -> None:
        #: The file; None for a log whose bytes live in :attr:`_fh`.
        self.path = path
        self._fh = None
        self._fd = -1  # read-only, for read(); opened on first use
        #: Damaged lines the last :meth:`scan` skipped (the torn tail
        #: aside): anything but 0 means the log is damaged mid-file.
        self.skipped = 0

    @classmethod
    def in_memory(cls, data: bytes = b"") -> "RecordLog":
        """A log whose bytes live in this process (the twin's journal: a
        simulated restart keeps them as the kernel keeps a killed
        process's flushed writes). Built from ``data``, a log's bytes cut
        anywhere, it drops the torn tail by the same rule as a file."""
        log = cls(None)
        log._fh = buf = io.BytesIO(data)
        buf.seek(buf.truncate(_last_record_end(buf)))  # append at the end
        return log

    def scan(self) -> Iterator[tuple[int, bytes, dict]]:
        """``(offset, line, record)`` for every record, in file order,
        one line in memory at a time; :attr:`skipped` is set once the
        scan is done. A missing file is an empty log."""
        skipped = offset = 0
        source = (io.BytesIO(self._fh.getvalue()) if self.path is None
                  else open(self.path, "rb") if os.path.exists(self.path)
                  else io.BytesIO())
        with source as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break  # torn tail: only the final line can lack "\n"
                try:
                    # Decoding here, not in json.loads(bytes), which
                    # sniffs the encoding per call and replays
                    # measurably slower.
                    record = json.loads(line.decode("utf-8"))
                except (ValueError, RecursionError):  # bad UTF-8 too
                    record = None
                if isinstance(record, dict):
                    yield offset, line, record
                else:
                    skipped += 1
                offset += len(line)
        self.skipped = skipped

    def read(self, offset: int, length: int) -> bytes:
        """``length`` bytes of the log from ``offset``: one ``pread`` (a
        slice in memory). Every append is flushed before it returns, so
        any range an append reported is readable."""
        if self.path is None:
            return self._fh.getbuffer()[offset:offset + length].tobytes()
        if self._fd < 0:
            self._fd = os.open(self.path, os.O_RDONLY)
        return os.pread(self._fd, length, offset)

    def _write(self, lines: str) -> int:
        """Write and flush ``lines``; returns the bytes written."""
        if self._fh is None:
            self._fh = _open_after_last_record(self.path)
        data = lines.encode("utf-8")
        self._fh.write(data)
        self._fh.flush()
        return len(data)

    def append(self, record: Union[dict, str]) -> int:
        """Append one record: a dict, or its line already rendered.
        Returns the line's file offset."""
        size = self._write(_line(record))
        # The file is opened for append: the write landed at the end,
        # wherever that was, and left the position after it.
        return self._fh.tell() - size

    def append_many(self, records: list) -> None:
        """Append N records (dicts or rendered lines) with ONE flush —
        the batch durability point. All-or-nothing to the same degree as
        ``append``: every line is in the userspace buffer before the
        single flush."""
        if records:
            self._write("".join(map(_line, records)))

    def close(self) -> None:
        """Release the file's handles; an in-memory log keeps its bytes."""
        if self._fh is not None and self.path is not None:
            self._fh.close()
            self._fh = None
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

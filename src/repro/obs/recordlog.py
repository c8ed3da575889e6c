"""The one on-disk record log: line codec, flushed appender, reader.

The job journal (:class:`~repro.control.workqueue.FileJournal` *is*
:class:`RecordLog`), the flight-recorder spool and the ``/events`` body
are the paper's "message typing, record boundaries" over a byte stream
(PAPER.md §1) in one form: a JSON object per newline-terminated line.
The three decisions they share are made here and nowhere else:

* **line format** — :func:`encode_line`: sorted keys, compact
  separators, ``"\\n"``; byte-stable for equal records.
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

import json
import os

__all__ = ["RecordLog", "encode_line", "read_records"]

# Built once: json.dumps with non-default arguments builds one per call.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def encode_line(record: dict) -> str:
    """One record as its log line (byte-stable key order)."""
    return _encode(record) + "\n"


def read_records(path: str) -> tuple[list[dict], int]:
    """Every record in the log at ``path`` plus the count of damaged
    lines skipped; a missing file is an empty log."""
    records: list[dict] = []
    skipped = 0
    if not os.path.exists(path):
        return records, skipped
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break  # torn tail: only the final line can lack its "\n"
            try:
                # Decoding here, not in json.loads(bytes), which sniffs
                # the encoding per call and replays measurably slower.
                record = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):  # bad UTF-8 included
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                skipped += 1
    return records, skipped


def _open_after_last_record(path: str):
    """Open ``path`` for append with any torn tail cut off, looking at
    the tail only — restart cost must not grow with history."""
    fh = open(path, "ab")  # write-only: "a+b" pays a seek per flush
    with open(path, "rb") as tail:
        keep = tail.seek(0, os.SEEK_END)
        while keep > 0:
            start = max(keep - 4096, 0)
            tail.seek(start)
            keep = start + tail.read(keep - start).rfind(b"\n") + 1
            if keep > start:
                break  # found the last newline; else keep == start, go on
    fh.truncate(keep)
    return fh


class RecordLog:
    """Append-only record file, opened lazily, flushed once per call."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = None
        #: Damaged lines the last :meth:`records` skipped (the torn tail
        #: aside): anything but 0 means the log is damaged mid-file.
        self.skipped = 0

    def records(self) -> list[dict]:
        out, self.skipped = read_records(self.path)
        return out

    def _write(self, lines: str) -> None:
        if self._fh is None:
            self._fh = _open_after_last_record(self.path)
        self._fh.write(lines.encode("utf-8"))
        self._fh.flush()

    def append(self, record: dict) -> None:
        self._write(encode_line(record))

    def append_many(self, records: list[dict]) -> None:
        """Append N records with ONE flush — the batch durability point.
        All-or-nothing to the same degree as ``append``: every line is
        in the userspace buffer before the single flush."""
        if records:
            self._write("".join(map(encode_line, records)))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

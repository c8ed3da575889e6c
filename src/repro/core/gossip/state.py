"""Synchronized state records and freshness comparison.

The paper's Gossip service (§2.3) synchronizes *typed* state: an
application component registers a contact address, a unique message type,
and a comparator that decides which of two records of that type is
fresher. This module holds the record representation, the comparator
machinery, and the client-side :class:`StateStore` that application
components keep their replicated state in.

The default comparator orders by ``(stamp, seq, origin)`` — wall-clock
freshness with deterministic tie-breaks — implementing the paper's
loosely-consistent, last-writer-wins model. Application-specific
comparators (e.g. "larger counter-example wins" for the Ramsey search)
are registered per message type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Optional

from ..linguafranca.messages import MALFORMED, _json, wire_stamp

__all__ = [
    "StateRecord",
    "Comparator",
    "default_comparator",
    "ComparatorRegistry",
    "StateStore",
]

#: Returns >0 if ``a`` is fresher than ``b``, <0 if staler, 0 if equivalent.
Comparator = Callable[["StateRecord", "StateRecord"], int]


@dataclass(frozen=True)
class StateRecord:
    """One unit of synchronized application state."""

    mtype: str
    data: dict
    stamp: float  # origin-local time of last modification
    origin: str  # contact address of the writer
    seq: int  # per-origin monotonic write counter

    def to_body(self) -> dict:
        return {"t": self.mtype, "d": self.data, "ts": self.stamp,
                "o": self.origin, "n": self.seq}

    @cached_property
    def body_size(self) -> int:
        """Serialized size of :meth:`to_body`, once per shared record."""
        return len(_json(self.to_body()))

    @classmethod
    def from_body(cls, body: dict) -> "StateRecord":
        """Parse a wire record; raises one of :data:`MALFORMED` unless
        the tag and origin are strings and the stamp a finite number."""
        mtype, origin = body["t"], body["o"]
        if type(mtype) is not str or type(origin) is not str:
            raise TypeError("record tag and origin must be strings")
        return cls(mtype=mtype, data=body["d"], stamp=wire_stamp(body["ts"]),
                   origin=origin, seq=int(body["n"]))


def wire_list(value: Any) -> list:
    """``value`` when the frame carried a JSON array there, else ``[]``."""
    return value if isinstance(value, list) else []


def wire_int(value: Any, default: int) -> int:
    """``int(value)``, or ``default`` when the field is malformed."""
    try:
        return int(value)
    except MALFORMED:
        return default


def default_comparator(a: StateRecord, b: StateRecord) -> int:
    """Last-writer-wins by (stamp, seq, origin)."""
    ka = (a.stamp, a.seq, a.origin)
    kb = (b.stamp, b.seq, b.origin)
    return (ka > kb) - (ka < kb)


class ComparatorRegistry:
    """Per-message-type freshness comparators.

    Both Gossip servers and components hold one; registering a type at the
    Gossip is the code-level act the paper describes (§2.3). Unregistered
    types fall back to :func:`default_comparator`.
    """

    def __init__(self) -> None:
        self._comparators: dict[str, Comparator] = {}

    def register(self, mtype: str, comparator: Optional[Comparator] = None) -> None:
        self._comparators[mtype] = comparator or default_comparator

    def is_custom(self, mtype: str) -> bool:
        """True when the type's freshness is decided by an application
        comparator — i.e. version triples ``(stamp, seq, origin)`` alone
        cannot order two records, and anti-entropy must exchange full
        records for the comparator to arbitrate (see
        :func:`repro.core.gossip.digest.plan_exchange`)."""
        registered = self._comparators.get(mtype)
        return registered is not None and registered is not default_comparator

    def compare(self, a: StateRecord, b: StateRecord) -> int:
        if a.mtype != b.mtype:
            raise ValueError(f"comparing records of different types: {a.mtype} vs {b.mtype}")
        return self._comparators.get(a.mtype, default_comparator)(a, b)

    def fresher(self, a: StateRecord, b: StateRecord) -> StateRecord:
        return a if self.compare(a, b) >= 0 else b


class StateStore:
    """A component's local view of its synchronized state types."""

    def __init__(self, owner: str, comparators: Optional[ComparatorRegistry] = None) -> None:
        self.owner = owner
        self.comparators = comparators or ComparatorRegistry()
        self._records: dict[str, StateRecord] = {}
        self._seq: dict[str, int] = {}

    def register(
        self,
        mtype: str,
        comparator: Optional[Comparator] = None,
        initial: Optional[dict] = None,
        now: float = 0.0,
    ) -> None:
        """Declare a synchronized type, optionally seeding initial state."""
        if mtype in self._seq:
            raise ValueError(f"type {mtype!r} already registered with this store")
        self.comparators.register(mtype, comparator)
        self._seq[mtype] = 0
        if initial is not None:
            self.set_local(mtype, initial, now)

    def types(self) -> list[str]:
        return sorted(self._seq)

    def set_local(self, mtype: str, data: dict, now: float) -> StateRecord:
        """Record a local write; returns the new record."""
        if mtype not in self._seq:
            raise KeyError(f"type {mtype!r} not registered")
        self._seq[mtype] += 1
        rec = StateRecord(mtype=mtype, data=data, stamp=now,
                          origin=self.owner, seq=self._seq[mtype])
        self._records[mtype] = rec
        return rec

    def apply_remote(self, record: StateRecord) -> bool:
        """Adopt a remote record if fresher; returns True if adopted."""
        current = self._records.get(record.mtype)
        if current is None or self.comparators.compare(record, current) > 0:
            self._records[record.mtype] = record
            return True
        return False

    def get(self, mtype: str) -> Optional[StateRecord]:
        return self._records.get(mtype)

    def get_data(self, mtype: str) -> Optional[dict]:
        rec = self._records.get(mtype)
        return rec.data if rec is not None else None

    def records(self) -> list[StateRecord]:
        """All current records, deterministically ordered by type."""
        return [self._records[t] for t in sorted(self._records)]

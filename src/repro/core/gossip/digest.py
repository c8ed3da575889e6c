"""Digest/delta anti-entropy: compact state summaries for the Gossip pool.

The paper concedes that the SC98 prototype's state exchange "can be
substantially optimized" (§2.3). This module is that optimization's data
plane: instead of serializing every freshest record into each sync
message, a Gossip summarizes its state as

* a **root hash** — one integer covering every record's version identity,
  compared first so converged peers exchange O(1) bytes per round; and
* **bucket hashes** — the record space split into :data:`DIGEST_BUCKETS`
  fixed buckets by record tag, so two diverged peers can localize their
  disagreement to a few buckets and exchange per-record digest *entries*
  ``(tag, stamp, seq, origin, hash)`` only for those, never the full
  state.

Hashes are XOR-accumulated CRC32s of each record's version triple
``(stamp, seq, origin)``, so adopting or replacing one record is an O(1)
incremental update (XOR out the old hash, XOR in the new) — the root is
one integer kept beside the buckets, so reading it costs the same however
much state is registered.

:func:`plan_exchange` computes the actual delta: given the local freshest
map and a peer's digest entries, it returns the records the peer lacks or
holds stale copies of (ship them) and the tags the local side wants (the
nack list). Types with a *custom* comparator cannot be ordered from
version triples alone, so both sides exchange full records and let the
registered comparator decide at each end — freshness authority stays with
the comparator, exactly as the paper specifies.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Iterable, Optional

from .state import MALFORMED, wire_stamp

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .state import ComparatorRegistry, StateRecord

__all__ = [
    "DIGEST_BUCKETS",
    "DigestEntry",
    "StateDigest",
    "freshness_hash",
    "bucket_of",
    "plan_exchange",
]

#: Fixed bucket count: the per-round digest cost when peers diverge.
#: 16 keeps the bucket vector smaller than two full records while still
#: cutting entry exchanges to ~1/16th of the registered state.
DIGEST_BUCKETS = 16

#: Wire shape of one per-record digest entry:
#: ``[tag, stamp, seq, origin, freshness-hash]``.
DigestEntry = list


def freshness_hash(mtype: str, stamp: float, seq: int, origin: str) -> int:
    """CRC32 of a record's version identity. Two records hash equal iff
    they are the same write (same tag, stamp, seq, origin)."""
    return zlib.crc32(f"{mtype}|{stamp!r}|{seq}|{origin}".encode("utf-8"))


def bucket_of(mtype: str) -> int:
    """Deterministic tag -> bucket assignment."""
    return zlib.crc32(mtype.encode("utf-8")) % DIGEST_BUCKETS


class StateDigest:
    """Incrementally-maintained digest over a freshest-record map.

    The owning :class:`~.server.GossipServer` routes every adoption
    through :meth:`adopt` (and evictions through :meth:`forget`), so the
    bucket vector is always current and a sync round never rescans state.
    ``entry_bytes`` tracks the serialized size of the current state — what
    a full-state sync would ship per round — for the ``bytes_saved``
    accounting.
    """

    __slots__ = ("buckets", "count", "entry_bytes", "_hashes", "_sizes", "_xor")

    def __init__(self) -> None:
        self.buckets = [0] * DIGEST_BUCKETS
        self.count = 0
        self.entry_bytes = 0
        self._hashes: dict[str, int] = {}
        self._sizes: dict[str, int] = {}
        #: XOR of every record hash, i.e. of every bucket hash.
        self._xor = 0

    @property
    def root(self) -> int:
        """Order-independent root hash: XOR of bucket hashes mixed with
        the record count (so an empty bucket vector with different counts
        still differs)."""
        return self.count ^ self._xor

    def adopt(self, record: "StateRecord", size: int) -> None:
        """Fold ``record`` in (replacing any prior record of its tag).
        ``size`` is the serialized body size used for byte accounting."""
        tag = record.mtype
        bucket = bucket_of(tag)
        old = self._hashes.get(tag)
        if old is not None:
            self.buckets[bucket] ^= old
            self._xor ^= old
            self.entry_bytes -= self._sizes[tag]
        else:
            self.count += 1
        h = freshness_hash(tag, record.stamp, record.seq, record.origin)
        self.buckets[bucket] ^= h
        self._xor ^= h
        self._hashes[tag] = h
        self._sizes[tag] = size
        self.entry_bytes += size

    def forget(self, mtype: str) -> None:
        """Remove a tag from the digest (state GC)."""
        old = self._hashes.pop(mtype, None)
        if old is None:
            return
        self.buckets[bucket_of(mtype)] ^= old
        self._xor ^= old
        self.entry_bytes -= self._sizes.pop(mtype)
        self.count -= 1

    def hash_of(self, mtype: str) -> Optional[int]:
        return self._hashes.get(mtype)

    def diverged_buckets(self, remote_buckets: list[int]) -> list[int]:
        """Bucket indices where the two digests disagree."""
        return [i for i in range(DIGEST_BUCKETS)
                if i >= len(remote_buckets) or self.buckets[i] != remote_buckets[i]]

    def entries_for(self, freshest: dict[str, "StateRecord"],
                    buckets: Iterable[int]) -> list[DigestEntry]:
        """Per-record digest entries for the given buckets, sorted by tag
        (deterministic wire order)."""
        wanted = set(buckets)
        out: list[DigestEntry] = []
        for tag in sorted(freshest):
            if bucket_of(tag) in wanted:
                rec = freshest[tag]
                out.append([tag, rec.stamp, rec.seq, rec.origin,
                            self._hashes.get(tag, 0)])
        return out


def plan_exchange(
    freshest: dict[str, "StateRecord"],
    digest: StateDigest,
    comparators: "ComparatorRegistry",
    remote_entries: Iterable[DigestEntry],
    buckets: Optional[Iterable[int]] = None,
) -> tuple[list["StateRecord"], list[str], int]:
    """Compute the delta against a peer's digest entries.

    Returns ``(ship, want, comparisons)``: records to send because the
    peer's copy is missing or stale, tags to request because the peer's
    copy looks fresher (the nack list), and the number of comparator
    invocations spent deciding. When ``buckets`` is given, local records
    in those buckets that the peer did not list at all are shipped too
    (the peer provably lacks them).

    A malformed entry (a short list, a non-number, an ``inf`` or NaN
    stamp, an integer field given as ``inf``) is skipped as if the peer
    had not listed it, and ``buckets`` that are not a list of bucket
    numbers read as absent: hostile entries never change the plan the
    well-formed ones make.
    """
    ship: list["StateRecord"] = []
    want: list[str] = []
    comparisons = 0
    listed: set[str] = set()
    for entry in remote_entries:
        try:
            tag, stamp, seq, origin, rhash = (
                str(entry[0]), wire_stamp(entry[1]), int(entry[2]),
                str(entry[3]), int(entry[4]))
        except MALFORMED:
            continue  # malformed entry: robustness over strictness
        listed.add(tag)
        mine = freshest.get(tag)
        if mine is None:
            want.append(tag)
            continue
        if digest.hash_of(tag) == rhash:
            continue  # identical write: nothing to exchange
        if comparators.is_custom(tag):
            # Version triples cannot order custom-compared types: exchange
            # full records and let each side's comparator arbitrate.
            ship.append(mine)
            want.append(tag)
            continue
        comparisons += 1
        mk = (mine.stamp, mine.seq, mine.origin)
        rk = (stamp, seq, origin)
        if mk > rk:
            ship.append(mine)
        elif rk > mk:
            want.append(tag)
    try:
        in_scope = set(buckets) if buckets is not None else set()
    except TypeError:  # not a list of bucket numbers: as if absent
        in_scope = set()
    if in_scope:
        for tag in sorted(freshest):
            if tag not in listed and bucket_of(tag) in in_scope:
                ship.append(freshest[tag])
    return ship, sorted(set(want)), comparisons

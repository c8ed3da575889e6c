"""Unit tests: digest/delta anti-entropy data plane (DESIGN §15)."""

import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.gossip import (
    DIGEST_BUCKETS,
    ComparatorRegistry,
    StateDigest,
    StateRecord,
    bucket_of,
    freshness_hash,
    plan_exchange,
)


def rec(tag, stamp=1.0, origin="a/x", seq=1, data=None):
    return StateRecord(mtype=tag, data=data or {"v": 1}, stamp=stamp,
                       origin=origin, seq=seq)


def adopt(digest, record):
    digest.adopt(record, len(json.dumps(record.to_body())))


def build(records):
    digest = StateDigest()
    freshest = {}
    for r in records:
        freshest[r.mtype] = r
        adopt(digest, r)
    return digest, freshest


def test_freshness_hash_identifies_the_write():
    assert freshness_hash("T", 1.0, 1, "a") == freshness_hash("T", 1.0, 1, "a")
    assert freshness_hash("T", 1.0, 1, "a") != freshness_hash("T", 2.0, 1, "a")
    assert freshness_hash("T", 1.0, 1, "a") != freshness_hash("T", 1.0, 2, "a")
    assert freshness_hash("T", 1.0, 1, "a") != freshness_hash("T", 1.0, 1, "b")
    assert freshness_hash("T", 1.0, 1, "a") != freshness_hash("U", 1.0, 1, "a")


def test_bucket_assignment_is_stable_and_in_range():
    for tag in ("A", "B", "LONG_TAG_NAME", "x" * 100):
        b = bucket_of(tag)
        assert 0 <= b < DIGEST_BUCKETS
        assert bucket_of(tag) == b


def test_adopt_is_incremental_and_order_independent():
    records = [rec(f"T{i}", stamp=float(i)) for i in range(10)]
    d1, _ = build(records)
    d2, _ = build(list(reversed(records)))
    assert d1.root == d2.root
    assert d1.buckets == d2.buckets
    assert d1.count == 10


def test_replacing_a_record_updates_not_grows():
    d, _ = build([rec("T", stamp=1.0)])
    before_bytes = d.entry_bytes
    d.adopt(rec("T", stamp=2.0), before_bytes + 7)
    assert d.count == 1
    assert d.entry_bytes == before_bytes + 7
    # Replacing back restores the exact same digest (XOR involution).
    d.adopt(rec("T", stamp=1.0), before_bytes)
    d2, _ = build([rec("T", stamp=1.0)])
    assert d.root == d2.root


def test_forget_removes_cleanly():
    d, _ = build([rec("A"), rec("B")])
    d.forget("B")
    only_a, _ = build([rec("A")])
    assert d.root == only_a.root
    assert d.count == 1
    d.forget("B")  # idempotent
    assert d.count == 1


def test_converged_digests_report_no_divergence():
    records = [rec(f"T{i}") for i in range(20)]
    d1, _ = build(records)
    d2, _ = build(records)
    assert d1.root == d2.root
    assert d1.diverged_buckets(d2.buckets) == []


def test_divergence_is_localized_to_buckets():
    records = [rec(f"T{i}") for i in range(20)]
    d1, f1 = build(records)
    changed = rec("T3", stamp=9.0)
    d2, f2 = build(records)
    d2.adopt(changed, 10)
    f2["T3"] = changed
    diverged = d1.diverged_buckets(d2.buckets)
    assert diverged == [bucket_of("T3")]
    entries = d2.entries_for(f2, diverged)
    tags = [e[0] for e in entries]
    assert "T3" in tags
    # Only same-bucket tags ride along, never the whole state.
    assert all(bucket_of(t) == bucket_of("T3") for t in tags)


def test_plan_exchange_ships_fresher_and_wants_staler():
    comparators = ComparatorRegistry()
    base = [rec("A", stamp=1.0), rec("B", stamp=1.0), rec("C", stamp=1.0)]
    digest, freshest = build(base)
    # Peer: fresher A, staler B (same C).
    peer_entries = [
        ["A", 5.0, 1, "a/x", freshness_hash("A", 5.0, 1, "a/x")],
        ["B", 0.5, 1, "a/x", freshness_hash("B", 0.5, 1, "a/x")],
        ["C", 1.0, 1, "a/x", freshness_hash("C", 1.0, 1, "a/x")],
    ]
    ship, want, comparisons = plan_exchange(
        freshest, digest, comparators, peer_entries)
    assert [r.mtype for r in ship] == ["B"]
    assert want == ["A"]
    assert comparisons == 2  # C short-circuits on hash equality


def test_plan_exchange_missing_records_both_ways():
    comparators = ComparatorRegistry()
    digest, freshest = build([rec("MINE")])
    peer_entries = [["THEIRS", 1.0, 1, "b/x",
                     freshness_hash("THEIRS", 1.0, 1, "b/x")]]
    ship, want, _ = plan_exchange(
        freshest, digest, comparators, peer_entries,
        buckets=range(DIGEST_BUCKETS))
    # We want what they listed and we lack; we ship what they never
    # listed in the scoped buckets.
    assert want == ["THEIRS"]
    assert [r.mtype for r in ship] == ["MINE"]


def test_custom_comparator_forces_full_exchange():
    comparators = ComparatorRegistry()
    comparators.register("RAMSEY", lambda a, b: (a.data["k"] > b.data["k"])
                         - (a.data["k"] < b.data["k"]))
    assert comparators.is_custom("RAMSEY")
    assert not comparators.is_custom("PLAIN")
    mine = rec("RAMSEY", stamp=9.0, data={"k": 10})
    digest, freshest = build([mine])
    # The peer's version triple looks *newer*, but triples cannot order a
    # custom-compared type: both sides must see both records.
    peer_entries = [["RAMSEY", 99.0, 7, "b/x",
                     freshness_hash("RAMSEY", 99.0, 7, "b/x")]]
    ship, want, comparisons = plan_exchange(
        freshest, digest, comparators, peer_entries)
    assert [r.mtype for r in ship] == ["RAMSEY"]
    assert want == ["RAMSEY"]
    assert comparisons == 0  # decision deferred to each side's comparator


def test_plan_exchange_tolerates_malformed_entries():
    comparators = ComparatorRegistry()
    digest, freshest = build([rec("A")])
    ship, want, _ = plan_exchange(
        freshest, digest, comparators,
        [["bad"], [], [None, None, None, None, None], 42,
         ["B", "not-a-stamp", 1, "x", 0]])
    assert ship == []
    assert want == []


# -- hostile entries never change the plan -----------------------------------

TAGS = ["A", "B", "C"]
#: Values a JSON frame can carry that no entry field may take: JSON's
#: ``Infinity``/``1e999``/``NaN``, an integer too large for a float, and
#: the wrong types.
HOSTILE = [math.inf, -math.inf, math.nan, 10**400, "x", None, [], {}]
valid_entries = st.lists(
    st.tuples(st.sampled_from(TAGS), st.floats(0.0, 8.0), st.integers(0, 3),
              st.sampled_from(["a/x", "b/x"])).map(
        lambda t: [*t, freshness_hash(*t)]),
    max_size=6)
hostile_entries = st.lists(st.one_of(
    # One field of an otherwise well-formed entry is hostile. A 400-digit
    # integer is still an integer, so it only counts against the stamp.
    st.tuples(st.sampled_from(TAGS), st.sampled_from(HOSTILE),
              st.integers(0, 3), st.just("b/x"), st.integers()).map(list),
    st.tuples(st.sampled_from(TAGS), st.floats(0.0, 8.0),
              st.sampled_from([h for h in HOSTILE if h != 10**400]),
              st.just("b/x"), st.integers()).map(list),
    st.tuples(st.sampled_from(TAGS), st.floats(0.0, 8.0), st.integers(0, 3),
              st.just("b/x"),
              st.sampled_from([h for h in HOSTILE if h != 10**400])).map(list),
    # Entries of the wrong shape altogether.
    st.sampled_from([[], ["A"], ["A", 1.0, 1, "b/x"], 42, None, "A",
                     {"0": "A"}, math.nan])),
    min_size=1, max_size=4)


def _local():
    digest, freshest = build([rec("A", stamp=2.0), rec("B", stamp=5.0, seq=2)])
    return freshest, digest, ComparatorRegistry()


@given(valid=valid_entries, hostile=hostile_entries, rnd=st.randoms(),
       buckets=st.sampled_from([None, list(range(DIGEST_BUCKETS))]))
# Each raised or misplanned before malformed fields were skipped:
# int(inf) raised OverflowError, and a NaN stamp marked the tag listed
# while ordering neither way, so the local record was not shipped.
@example(valid=[], hostile=[["A", 1.0, math.inf, "o", 1]], rnd=random.Random(0),
         buckets=None)
@example(valid=[], hostile=[["A", math.nan, 1, "o", 1]], rnd=random.Random(0),
         buckets=list(range(DIGEST_BUCKETS)))
@example(valid=[], hostile=[["A", 10**400, 1, "o", 1]], rnd=random.Random(0),
         buckets=None)
@settings(max_examples=150, deadline=None)
def test_hostile_entries_plan_as_if_left_out(valid, hostile, rnd, buckets):
    mixed = list(valid)
    for entry in hostile:
        mixed.insert(rnd.randint(0, len(mixed)), entry)
    assert (plan_exchange(*_local(), mixed, buckets=buckets)
            == plan_exchange(*_local(), valid, buckets=buckets))


@pytest.mark.parametrize("buckets", [5, math.inf, [[1]], [{}]])
def test_unreadable_bucket_list_reads_as_absent(buckets):
    entries = [["C", 1.0, 1, "b/x", 0]]
    assert (plan_exchange(*_local(), entries, buckets=buckets)
            == plan_exchange(*_local(), entries, buckets=None))

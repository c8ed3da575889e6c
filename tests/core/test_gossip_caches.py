"""A Gossip member's membership-derived answers are cached per change
(DESIGN §15): the shard peers, the alive members and the piggyback budget
are derived once per membership view and per move of the suspicion
table's DEAD set, the digest root is one XOR kept beside the buckets, and
a suspicion tick with no suspect returns at once. Under any sequence of
liveness transitions, view swaps and digest writes, every cached answer
must equal the from-scratch formula it replaced."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.component import NullRuntime
from repro.core.gossip import DEAD, SUSPECT, ComparatorRegistry, GossipServer
from repro.core.gossip.state import StateRecord

POOL = [f"g{i:02d}/gossip" for i in range(12)]
ME = "g03/gossip"
CONTACTS = POOL + ["app0/app", "app1/app"]

member = st.sampled_from(CONTACTS)
incarnation = st.none() | st.integers(0, 3)
step = st.one_of(
    st.tuples(st.sampled_from(["suspect", "alive", "dead"]), member,
              incarnation),
    st.tuples(st.just("forget"), member),
    st.tuples(st.just("claims"), st.lists(st.tuples(
        member, st.sampled_from(["alive", "suspect", "dead"]),
        st.integers(0, 3)), max_size=4)),
    st.tuples(st.just("view"), st.sets(st.sampled_from(POOL), min_size=1)),
    st.tuples(st.just("adopt"), st.integers(0, 20), st.integers(0, 5)),
    st.tuples(st.just("unadopt"), st.integers(0, 20)),
)


def started_member():
    server = GossipServer("g03", POOL, comparators=ComparatorRegistry(),
                          shard_size=4)
    server.bind_runtime(NullRuntime(contact=ME))
    server.on_start(0.0)
    return server


def apply(server, op, now):
    susp, kind = server.suspicion, op[0]
    if kind == "suspect":
        susp.suspect(op[1], now, incarnation=op[2])
    elif kind == "alive":
        susp.confirm_alive(op[1], now, incarnation=op[2])
    elif kind == "dead":
        susp.declare_dead(op[1], now, incarnation=op[2])
    elif kind == "forget":
        susp.forget(op[1])
    elif kind == "claims":
        susp.apply_claims([list(claim) for claim in op[1]], now)
    elif kind == "view":
        # What a token carrying a new membership view does.
        server.clique.members = sorted(op[1])
        server._note_membership(now)
    elif kind == "adopt":
        server.digest.adopt(StateRecord(mtype=f"T{op[1]}", data={},
                                        stamp=float(op[2]), origin=ME,
                                        seq=1), 10)
    else:
        server.digest.forget(f"T{op[1]}")


def expected_tick(susp, now):
    deadline = susp._timeout()
    return [m for m in sorted(susp.members)
            if susp.members[m].state == SUSPECT
            and now - susp.members[m].since > deadline]


def check(server):
    susp, clique = server.suspicion, server.clique
    me = clique.self_id
    assert list(server._shard_peers()) == [
        p for p in clique.my_shard(server.shard_size)
        if p != me and susp.is_usable(p)]
    alive = [m for m in clique.members if m == me or susp.is_usable(m)]
    assert server.alive_members() == alive
    pool = max(len(server._members_view), 2)
    assert server._piggyback_budget() == int(math.ceil(math.log2(pool))) + 3
    assert server._rumor_budget() == int(math.ceil(math.log2(pool))) + 4
    digest = server.digest
    root = digest.count
    for h in digest.buckets:
        root ^= h
    assert digest.root == root


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(step, st.floats(0.0, 40.0)), max_size=40))
def test_cached_answers_match_the_formulas_after_every_step(steps):
    server = started_member()
    susp, now = server.suspicion, 0.0
    check(server)
    for op, dt in steps:
        now += dt
        apply(server, op, now)
        check(server)
        expected = expected_tick(susp, now)
        assert susp.tick(now) == expected
        assert all(susp.state_of(m) == DEAD for m in expected)
        check(server)


def test_editing_a_returned_list_does_not_change_the_next_answer():
    server = started_member()
    server.suspicion.declare_dead("g05/gossip", 1.0)
    alive = server.alive_members()
    assert "g05/gossip" not in alive and len(alive) == len(POOL) - 1
    alive.clear()
    assert server.alive_members() == [m for m in POOL if m != "g05/gossip"]
    peers = server._shard_peers()
    assert isinstance(peers, tuple)  # immutable: nothing to edit
    # No member is dead: the answer is the view, and editing it is harmless.
    server.suspicion.confirm_alive("g05/gossip", 2.0)
    members = server.alive_members()
    members.append("intruder/gossip")
    assert server.alive_members() == POOL
    assert server.pool_members() == POOL


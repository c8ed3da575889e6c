"""SWIM suspicion: state machine units plus fault-plan integration.

The satellite acceptance scenarios (ISSUE 9): a suspected-then-refuted
component must NOT be evicted, and a genuinely dead component's state
must be tombstoned exactly once pool-wide.
"""

import pytest

from repro.core.gossip import (
    ALIVE,
    DEAD,
    SUSPECT,
    ComparatorRegistry,
    GossipServer,
    SuspicionTable,
)
from repro.core.simdriver import SimDriver
from repro.simgrid.engine import Environment
from repro.simgrid.faults import FaultPlan
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.network import Network
from repro.simgrid.rand import RngStreams

from tests.core.test_gossip_integration import SyncedComponent


# -- SuspicionTable units ----------------------------------------------------

def test_alive_suspect_dead_progression():
    table = SuspicionTable("me/g", suspicion_timeout=10.0)
    assert table.state_of("peer/g") == ALIVE
    assert table.suspect("peer/g", now=0.0)
    assert table.state_of("peer/g") == SUSPECT
    assert table.is_usable("peer/g")  # suspects stay in rotation
    assert table.tick(5.0) == []  # window not yet expired
    assert table.tick(11.0) == ["peer/g"]
    assert table.state_of("peer/g") == DEAD
    assert not table.is_usable("peer/g")
    assert table.tick(20.0) == []  # death reported once


def test_first_hand_contact_refutes_suspicion():
    table = SuspicionTable("me/g", suspicion_timeout=10.0)
    table.suspect("peer/g", now=0.0)
    assert table.confirm_alive("peer/g", now=5.0)
    assert table.state_of("peer/g") == ALIVE
    assert table.tick(50.0) == []  # the old suspicion never expires


def test_relayed_refutation_needs_dominating_incarnation():
    table = SuspicionTable("me/g", suspicion_timeout=10.0)
    table.suspect("peer/g", now=0.0, incarnation=3)
    # A relayed alive-claim at the same incarnation does not refute.
    assert not table.confirm_alive("peer/g", now=1.0, incarnation=3)
    assert table.state_of("peer/g") == SUSPECT
    # A bumped incarnation does.
    assert table.confirm_alive("peer/g", now=2.0, incarnation=4)
    assert table.state_of("peer/g") == ALIVE


def test_stale_suspicion_cannot_rekill():
    table = SuspicionTable("me/g", suspicion_timeout=10.0)
    table.suspect("peer/g", now=0.0, incarnation=1)
    table.confirm_alive("peer/g", now=1.0, incarnation=2)
    # The stale claim (incarnation 1) arrives late: rejected.
    assert not table.suspect("peer/g", now=2.0, incarnation=1)
    assert table.state_of("peer/g") == ALIVE


def test_resurrection_bumps_incarnation():
    table = SuspicionTable("me/g", suspicion_timeout=1.0)
    table.suspect("peer/g", now=0.0)
    table.tick(2.0)
    assert table.state_of("peer/g") == DEAD
    before = table.view("peer/g").incarnation
    # First-hand contact from a declared-dead peer: reboot.
    assert table.confirm_alive("peer/g", now=3.0)
    assert table.state_of("peer/g") == ALIVE
    assert table.view("peer/g").incarnation == before + 1


def test_gossip_claims_drain_budget():
    table = SuspicionTable("me/g", suspicion_timeout=10.0)
    table.suspect("a/g", now=0.0, )
    claims = table.gossip_claims()
    assert claims == [["a/g", SUSPECT, 0]]
    # Default budget is 4: three more rounds, then silence.
    for _ in range(3):
        assert table.gossip_claims() == [["a/g", SUSPECT, 0]]
    assert table.gossip_claims() == []


def test_apply_claims_self_suspicion_returns_refutation():
    table = SuspicionTable("me/g", suspicion_timeout=10.0)
    refutation = table.apply_claims([["me/g", SUSPECT, 0]], now=1.0)
    assert refutation == ["me/g", ALIVE, 1]
    assert table.self_incarnation == 1
    # The refuted (lower) claim no longer triggers a new refutation.
    assert table.apply_claims([["me/g", SUSPECT, 0]], now=2.0) is None


def test_apply_claims_merges_peers_and_skips_garbage():
    table = SuspicionTable("me/g", suspicion_timeout=10.0)
    table.apply_claims(
        [["a/g", SUSPECT, 0], ["b/g", DEAD, 2], ["c/g", ALIVE, 0],
         ["bad"], [1, 2], "nope"], now=1.0)
    assert table.state_of("a/g") == SUSPECT
    assert table.state_of("b/g") == DEAD
    assert table.state_of("c/g") == ALIVE


def test_transition_hook_fires():
    seen = []
    table = SuspicionTable(
        "me/g", suspicion_timeout=1.0,
        on_transition=lambda m, old, new: seen.append((m, old, new)))
    table.suspect("peer/g", now=0.0)
    table.tick(2.0)
    assert seen == [("peer/g", ALIVE, SUSPECT), ("peer/g", SUSPECT, DEAD)]
    assert table.transitions[SUSPECT] == 1
    assert table.transitions[DEAD] == 1


# -- integration: FaultPlan-driven suspicion at the GossipServer -------------

class FaultWorld:
    """Two-Gossip pool plus components, with site-aware hosts so a
    FaultPlan can partition components away from the pool."""

    def __init__(self, n_comps=2, seed=4, **server_kw):
        self.env = Environment()
        self.streams = RngStreams(seed=seed)
        self.net = Network(self.env, self.streams, jitter=0.0)
        self.well_known = [f"gos{i}/gossip" for i in range(2)]
        self.gossips = []
        for i in range(2):
            h = Host(self.env, HostSpec(name=f"gos{i}", site="core"),
                     self.streams)
            self.net.add_host(h)
            server = GossipServer(
                f"gos{i}", self.well_known,
                comparators=ComparatorRegistry(),
                poll_period=5.0, sync_period=7.0,
                token_period=8.0, token_timeout=25.0,
                **server_kw,
            )
            SimDriver(self.env, self.net, h, "gossip", server,
                      self.streams).start()
            self.gossips.append(server)
        self.comps = []
        self.chosts = []
        for i in range(n_comps):
            h = Host(self.env, HostSpec(name=f"app{i}", site="edge"),
                     self.streams)
            self.net.add_host(h)
            self.chosts.append(h)
            comp = SyncedComponent(f"app{i}", self.well_known)
            SimDriver(self.env, self.net, h, "app", comp, self.streams).start()
            self.comps.append(comp)

    def install(self, plan: FaultPlan) -> None:
        plan.install(self.env, self.net)


def test_partitioned_component_is_suspected_then_refuted_not_evicted():
    w = FaultWorld(n_comps=2)
    # Cut the edge site off at t=40; heal 50s later (t=90) — inside the
    # suspicion window, before any suspect can be declared dead.
    plan = FaultPlan().partition(at=40.0, groups=[("core",), ("edge",)],
                                 heal_after=50.0)
    w.install(plan)
    w.env.run(until=300)
    suspicions = sum(g.stats.suspicions for g in w.gossips)
    refutations = sum(g.stats.refutations for g in w.gossips)
    assert suspicions >= 1, "silence through a partition must raise suspicion"
    assert refutations >= 1, "contact after the heal must refute it"
    # The load-bearing acceptance: suspected-then-refuted is NOT evicted.
    assert sum(g.stats.evictions for g in w.gossips) == 0
    assert sum(g.stats.tombstones_created for g in w.gossips) == 0
    for g in w.gossips:
        assert "app0/app" in g.registry
        assert "app1/app" in g.registry


def test_crashed_component_tombstoned_exactly_once_pool_wide():
    w = FaultWorld(n_comps=2)
    plan = FaultPlan().crash(at=40.0, host="app0", reboot_after=30.0)
    w.install(plan)
    w.env.run(until=400)
    # The machine rebooted but the guest process stays dead (Host
    # semantics), so the eviction must stand — and happen exactly once.
    assert sum(g.stats.evictions for g in w.gossips) == 1
    assert sum(g.stats.tombstones_created for g in w.gossips) == 1
    for g in w.gossips:
        assert "app0/app" not in g.registry
        assert "app1/app" in g.registry  # the survivor is untouched
    # The non-evicting member learned through the piggybacked tombstone.
    assert sum(g.stats.tombstones_applied for g in w.gossips) >= 1


def test_suspicion_rides_digests_between_members():
    w = FaultWorld(n_comps=1)
    plan = FaultPlan().crash(at=40.0, host="app0")
    w.install(plan)
    w.env.run(until=400)
    # Exactly one member was responsible and evicted; but *both* members
    # witnessed the suspect transition via piggybacked claims.
    suspects_seen = [g.suspicion.transitions[SUSPECT] for g in w.gossips]
    assert all(s >= 1 for s in suspects_seen)


def test_static_timeout_mode_still_detects_death():
    w = FaultWorld(n_comps=1, dynamic_timeouts=False)
    plan = FaultPlan().crash(at=40.0, host="app0")
    w.install(plan)
    w.env.run(until=500)
    assert sum(g.stats.evictions for g in w.gossips) == 1


def test_replies_are_timed_once_from_their_request_stamps():
    """A poll's and a digest's response times feed the forecasts that
    size the next time-out: a new poll replaces a lost one, a reply is
    recorded once, an unsolicited GOS_STATE records nothing, and an
    overdue digest is forgotten rather than timed."""
    from repro.core.component import NullRuntime
    from repro.core.forecasting.benchmarking import event_tag
    from repro.core.gossip.server import (GOS_DELTA, GOS_DIGEST, GOS_POLL,
                                          GOS_REG, GOS_STATE, T_POLL, T_SYNC)
    from repro.core.linguafranca.messages import Message

    server = GossipServer("g0", ["g0/gossip", "g1/gossip"],
                          comparators=ComparatorRegistry())
    server.bind_runtime(NullRuntime(contact="g0/gossip"))
    server.on_start(0.0)
    app = next(f"app{i}/app" for i in range(64)
               if server.responsible_for(f"app{i}/app"))
    server.on_message(Message(mtype=GOS_REG, sender=app, body={}), 0.0)

    def state(now):
        server.on_message(Message(mtype=GOS_STATE, sender=app, body={}), now)

    def ack(now):
        server.on_message(Message(mtype=GOS_DELTA, sender="g1/gossip",
                                  body={"a": 1, "ok": 1}), now)

    def samples(mtype, peer):
        fc = server.forecasts.forecast(event_tag(peer, mtype))
        return None if fc is None else (fc.samples, fc.value)

    state(0.5)                      # unsolicited: no poll outstanding
    server.on_timer(T_POLL, 1.0)    # lost
    server.on_timer(T_POLL, 16.0)   # replaces it
    state(16.5)
    state(17.0)                     # a second answer
    assert samples(GOS_POLL, app) == (1, pytest.approx(0.5))

    server.on_timer(T_SYNC, 1.0)
    ack(1.5)
    ack(1.75)                       # a second ack
    server.on_timer(T_SYNC, 2.0)    # never acked, overdue by the next round
    server.on_timer(T_SYNC, 200.0)
    ack(200.5)
    assert samples(GOS_DIGEST, "g1/gossip") == (2, pytest.approx(0.5))

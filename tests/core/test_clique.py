"""Clique protocol tests: leadership, failure, partition and merge.

The clique state machine is exercised through the real simulator by
wrapping it in a minimal component, so message loss, delays, and host
death behave exactly as in the full system.
"""

import pytest

from repro.core.component import Component
from repro.core.gossip.clique import CliqueState
from repro.core.simdriver import SimDriver
from repro.simgrid.engine import Environment
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.network import Network
from repro.simgrid.rand import RngStreams


class CliqueComponent(Component):
    """Bare component hosting only a CliqueState."""

    def __init__(self, name, universe):
        super().__init__(name)
        self.universe = universe
        self.clique = None

    def on_start(self, now):
        self.clique = CliqueState(
            self_id=self.contact,
            universe=self.universe,
            token_period=10.0,
            assemble_wait=2.0,
            token_timeout=30.0,
            elect_timeout=5.0,
        )
        return self.clique.start(now)

    def on_message(self, message, now):
        return self.clique.on_message(message, now)

    def on_timer(self, key, now):
        return self.clique.on_timer(key, now)


class World:
    def __init__(self, n, sites=None):
        self.env = Environment()
        self.streams = RngStreams(seed=9)
        self.net = Network(self.env, self.streams, jitter=0.0)
        self.hosts = []
        self.comps = []
        universe = [f"g{i}/clq" for i in range(n)]
        for i in range(n):
            site = sites[i] if sites else "core"
            h = Host(self.env, HostSpec(name=f"g{i}", site=site), self.streams)
            self.net.add_host(h)
            self.hosts.append(h)
        for i in range(n):
            comp = CliqueComponent(f"g{i}", universe)
            SimDriver(self.env, self.net, self.hosts[i], "clq", comp, self.streams).start()
            self.comps.append(comp)

    def leaders(self, alive_only=True):
        out = set()
        for c, h in zip(self.comps, self.hosts):
            if alive_only and not h.up:
                continue
            out.add(c.clique.leader)
        return out

    def views(self, alive_only=True):
        return [
            sorted(c.clique.members)
            for c, h in zip(self.comps, self.hosts)
            if not alive_only or h.up
        ]


def test_stable_pool_converges_on_one_leader_and_full_membership():
    w = World(4)
    w.env.run(until=60)
    assert w.leaders() == {"g3/clq"}  # bully: highest id leads
    expected = sorted(f"g{i}/clq" for i in range(4))
    for view in w.views():
        assert view == expected
    # Nobody needed an election in a healthy pool.
    assert all(c.clique.elections_started == 0 for c in w.comps)


def test_leader_death_triggers_election_and_new_leader():
    w = World(4)
    w.env.run(until=60)
    w.hosts[3].go_down("failure")  # kill the leader g3
    w.env.run(until=200)
    assert w.leaders() == {"g2/clq"}  # next-highest takes over
    for view in w.views():
        assert view == sorted(f"g{i}/clq" for i in range(3))


def test_non_leader_death_shrinks_membership_without_election():
    w = World(4)
    w.env.run(until=60)
    w.hosts[0].go_down("failure")
    w.env.run(until=150)
    assert w.leaders() == {"g3/clq"}
    for view in w.views():
        assert view == sorted(f"g{i}/clq" for i in (1, 2, 3))


def test_partition_forms_two_subcliques_then_merges():
    w = World(4, sites=["east", "east", "west", "west"])
    w.env.run(until=60)
    assert w.leaders() == {"g3/clq"}

    # Partition east from west: g0,g1 lose the leader.
    w.net.set_partitions([["east"], ["west"]])
    w.env.run(until=300)
    east_leader = {w.comps[0].clique.leader, w.comps[1].clique.leader}
    west_leader = {w.comps[2].clique.leader, w.comps[3].clique.leader}
    assert east_leader == {"g1/clq"}  # east elects its highest id
    assert west_leader == {"g3/clq"}  # west keeps the old leader
    assert sorted(w.comps[0].clique.members) == ["g0/clq", "g1/clq"]
    assert sorted(w.comps[3].clique.members) == ["g2/clq", "g3/clq"]

    # Heal: the two subcliques must merge back under one leader.
    w.net.set_partitions([])
    w.env.run(until=600)
    assert w.leaders() == {"g3/clq"}
    expected = sorted(f"g{i}/clq" for i in range(4))
    for view in w.views():
        assert view == expected


def test_rejoin_after_host_recovery():
    w = World(3)
    w.env.run(until=60)
    w.hosts[0].go_down("failure")
    w.env.run(until=150)
    assert w.views()[0] == sorted(["g1/clq", "g2/clq"])

    # Bring the host back and restart its component.
    w.hosts[0].go_up()
    comp = CliqueComponent("g0", [f"g{i}/clq" for i in range(3)])
    SimDriver(w.env, w.net, w.hosts[0], "clq", comp, w.streams).start()
    w.comps[0] = comp
    w.env.run(until=300)
    assert w.leaders() == {"g2/clq"}
    for view in w.views():
        assert view == sorted(f"g{i}/clq" for i in range(3))


def test_dynamic_join_extends_universe():
    w = World(3)
    w.env.run(until=60)
    # A brand-new gossip (not in anyone's configured universe) joins via
    # the well-known members.
    h = Host(w.env, HostSpec(name="g9", site="core"), w.streams)
    w.net.add_host(h)

    class JoiningComponent(CliqueComponent):
        def on_start(self, now):
            # A joiner knows the well-known contact points plus itself —
            # exactly how GossipServer constructs its clique.
            self.clique = CliqueState(
                self_id=self.contact,
                universe=[f"g{i}/clq" for i in range(3)] + [self.contact],
                token_period=10.0,
                assemble_wait=2.0,
                token_timeout=30.0,
                elect_timeout=5.0,
            )
            effects = self.clique.join_effects([f"g{i}/clq" for i in range(3)])
            effects.extend(self.clique.start(now))
            return effects

    comp = JoiningComponent("g9", None)
    SimDriver(w.env, w.net, h, "clq", comp, w.streams).start()
    w.env.run(until=300)
    # g9/clq sorts above g2/clq, so after joining it should end up leading
    # (bully semantics) and everyone should see 4 members.
    members = sorted(["g0/clq", "g1/clq", "g2/clq", "g9/clq"])
    for c in (*w.comps, comp):
        assert sorted(c.clique.members) == members
    leaders = {c.clique.leader for c in (*w.comps, comp)}
    assert leaders == {"g9/clq"}


def test_token_and_version_monotonic():
    w = World(3)
    w.env.run(until=40)
    v1 = w.comps[0].clique.version
    w.hosts[2].go_down("failure")
    w.env.run(until=200)
    v2 = w.comps[0].clique.version
    assert v2 > v1 or w.comps[0].clique.tokens_seen > 0
    assert w.comps[0].clique.version >= v1


# -- a malformed token is rejected whole -----------------------------------

MALFORMED_TOKENS = [
    {"v": 99, "leader": "zz"},  # no membership at all
    {"v": 99, "leader": "zz", "members": 5},
    {"v": 99, "leader": "zz", "members": ["a"], "universe": 5},
    {"v": 99, "leader": "zz", "members": ["a", 7]},
    {"v": 99, "leader": "zz", "members": ["a"], "universe": [None]},
    {"v": 99, "leader": 3, "members": ["a"]},
    {"v": "x", "leader": "zz", "members": ["a"]},
    {"leader": "zz", "members": ["a"]},
]


def clique_state(clique):
    return (clique.version, clique.leader, list(clique.members),
            list(clique.universe), clique.tokens_seen)


@pytest.mark.parametrize("body", MALFORMED_TOKENS)
@pytest.mark.parametrize("sender", ["a", "zz"])
def test_malformed_token_changes_nothing(body, sender):
    from repro.core.linguafranca.messages import Message, MessageError

    clique = CliqueState("b", ["a", "b", "c"])
    before = clique_state(clique)
    with pytest.raises((MessageError, KeyError, TypeError, ValueError)):
        clique.on_message(Message("CLQ_TOKEN", sender, body), 1.0)
    assert clique_state(clique) == before


def test_well_formed_token_still_applies():
    from repro.core.linguafranca.messages import Message

    clique = CliqueState("b", ["a", "b", "c"])
    clique.on_message(Message("CLQ_TOKEN", "c", {
        "v": 3, "leader": "c", "members": ["c", "b"],
        "universe": ["d", "a"]}), 1.0)
    assert (clique.version, clique.leader, clique.tokens_seen) == (3, "c", 1)
    assert clique.members == ["b", "c"]
    assert clique.universe == ["a", "b", "c", "d"]

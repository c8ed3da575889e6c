#!/usr/bin/env python
"""Gossip pool under partition: subclique split, merge, and state healing.

Reproduces §2.3's clique-protocol behavior in a watchable run: a
three-gossip pool synchronizing four application components splits when
the network partitions (each side elects its own leader and keeps its
side consistent) and merges when the partition heals, after which state
written on either side reaches everyone.

Run: ``python examples/gossip_cluster.py``
"""

from repro.api import (
    ComparatorRegistry,
    Component,
    GossipAgent,
    GossipServer,
    SimWorld,
    StateStore,
)


class Worker(Component):
    """A component with one synchronized state type."""

    def __init__(self, name, well_known):
        super().__init__(name)
        self.well_known = well_known
        self.store = None
        self.agent = None

    def on_start(self, now):
        self.store = StateStore(self.contact)
        self.store.register("NOTE")
        self.agent = GossipAgent(self.store, self.well_known, register_period=20)
        return self.agent.on_start(now, self.contact)

    def on_message(self, message, now):
        if GossipAgent.handles(message.mtype):
            return self.agent.on_message(message, now, self.contact)
        return []

    def on_timer(self, key, now):
        if GossipAgent.handles_timer(key):
            return self.agent.on_timer(key, now, self.contact)
        return []


def main() -> None:
    world = SimWorld(seed=5, jitter=0.1)
    env, net = world.env, world.network
    well_known = [f"g{i}/gossip" for i in range(3)]
    sites = ["east", "east", "west"]

    gossips = []
    for i in range(3):
        g = GossipServer(f"g{i}", well_known,
                         comparators=ComparatorRegistry(),
                         poll_period=5, sync_period=8,
                         token_period=8, token_timeout=25)
        world.spawn(world.host(f"g{i}", site=sites[i]), "gossip", g)
        gossips.append(g)

    workers = []
    wsites = ["east", "east", "west", "west"]
    for i in range(4):
        w = Worker(f"w{i}", well_known)
        world.spawn(world.host(f"w{i}", site=wsites[i]), "app", w)
        workers.append(w)

    def show(label):
        print(f"\n[{env.now:7.0f}s] {label}")
        for g in gossips:
            print(f"  {g.name}: leader={g.clique.leader} "
                  f"members={sorted(g.clique.members)}")
        for w in workers:
            print(f"  {w.name}: NOTE={w.store.get_data('NOTE')}")

    env.run(until=60)
    show("pool formed, components registered")

    workers[0].store.set_local("NOTE", {"msg": "written in the east"}, env.now)
    env.run(until=150)
    show("after an east-side write spread everywhere")

    print("\n--- partitioning east | west ---")
    net.set_partitions([["east"], ["west"]])
    env.run(until=350)
    workers[2].store.set_local("NOTE", {"msg": "written in the WEST during partition"},
                               env.now)
    env.run(until=500)
    show("during partition (two subcliques; west write stays west)")

    print("\n--- healing the partition ---")
    net.set_partitions([])
    env.run(until=900)
    show("after merge (one clique again; the fresher write heals everywhere)")

    assert all(w.store.get_data("NOTE") is not None for w in workers)
    leaders = {g.clique.leader for g in gossips}
    assert len(leaders) == 1, "pool must re-merge under one leader"
    print("\nmerged under one leader; state consistent. done.")


if __name__ == "__main__":
    main()

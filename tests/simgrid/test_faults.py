"""Tests for the fault-injection subsystem (FaultPlan and injectors)."""

import pytest

from repro.core.linguafranca.endpoint import SimEndpoint
from repro.core.linguafranca.messages import Message
from repro.core.simdriver import SimWorld
from repro.experiments.sc98 import build_core, model_client_factory
from repro.infra.unixpool import UnixPool
from repro.simgrid.engine import Environment
from repro.simgrid.faults import FaultPlan, HostCrash, MessageChaos, SitePartition
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.network import Address, Network
from repro.simgrid.rand import RngStreams


def build_world(n_hosts=2, sites=("east", "west")):
    env = Environment()
    streams = RngStreams(seed=11)
    net = Network(env, streams, jitter=0.0)
    hosts = []
    for i in range(n_hosts):
        h = Host(env, HostSpec(name=f"h{i}", site=sites[i % len(sites)]), streams)
        net.add_host(h)
        h.start()
        hosts.append(h)
    return env, streams, net, hosts


# -- plan construction ------------------------------------------------------

def test_plan_chainable_and_last_heal_time():
    plan = (FaultPlan()
            .crash(100.0, "a", reboot_after=50.0)
            .partition(200.0, [["east"], ["west"]], heal_after=100.0)
            .outage(400.0, "unix", restore_after=25.0)
            .chaos(10.0, 20.0, drop=0.1))
    assert len(plan.injectors) == 4
    # partition heals at 300, crash reboots at 150, outage restores at
    # 425, chaos closes at 30 -> the last disturbance ends at 425.
    assert plan.last_heal_time() == 425.0
    assert FaultPlan().last_heal_time() is None
    # Permanent faults contribute no end time.
    assert FaultPlan().crash(5.0, "a").last_heal_time() is None


def test_plan_installs_once():
    env, streams, net, hosts = build_world()
    plan = FaultPlan().crash(1.0, "h0")
    plan.install(env, net)
    with pytest.raises(RuntimeError):
        plan.install(env, net)


# -- host crash -------------------------------------------------------------

def test_crash_and_reboot():
    env, streams, net, hosts = build_world()
    plan = FaultPlan().crash(10.0, "h0", reboot_after=5.0)
    plan.install(env, net)
    env.run(until=12.0)
    assert not hosts[0].up
    env.run(until=20.0)
    assert hosts[0].up
    assert plan.stats.crashes == 1 and plan.stats.reboots == 1
    assert [event for _, event in plan.log] == ["crash h0", "reboot h0"]


def test_crash_unknown_host_is_skipped():
    env, streams, net, hosts = build_world()
    plan = FaultPlan().crash(1.0, "ghost")
    plan.install(env, net)
    env.run(until=5.0)
    assert plan.stats.crashes == 0 and plan.stats.skipped == 1


# -- partition --------------------------------------------------------------

def test_partition_blocks_cross_site_traffic_until_heal():
    env, streams, net, hosts = build_world()
    sender = SimEndpoint(env, net, Address("h0", "a"))
    SimEndpoint(env, net, Address("h1", "b"))
    plan = FaultPlan().partition(10.0, [["east"], ["west"]], heal_after=10.0)
    plan.install(env, net)

    def talk(env):
        yield env.timeout(15.0)  # inside the partition
        sender.send("h1/b", Message(mtype="X", sender="h0/a"))
        yield env.timeout(10.0)  # after the heal
        sender.send("h1/b", Message(mtype="X", sender="h0/a"))

    env.process(talk(env))
    env.run(until=40.0)
    assert net.stats.dropped_partition == 1
    assert net.stats.delivered == 1
    assert plan.stats.partitions == 1 and plan.stats.heals == 1


# -- message chaos ----------------------------------------------------------

class FakeRng:
    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_chaos_fates_drop_duplicate_delay():
    # Certain drop: the first draw decides.
    assert MessageChaos(0, 1, drop=1.0).fates(FakeRng([0.5])) == []
    # Certain duplicate: original plus a delayed copy.
    fates = MessageChaos(0, 1, duplicate=1.0, delay_max=5.0).fates(
        FakeRng([0.9, 0.4]))
    assert fates == [0.0, pytest.approx(2.0)]
    # Certain delay: one copy, late.
    fates = MessageChaos(0, 1, delay=1.0, delay_max=10.0).fates(
        FakeRng([0.9, 0.25]))
    assert fates == [pytest.approx(2.5)]
    # No chaos configured: one on-time copy, no draws consumed.
    assert MessageChaos(0, 1).fates(FakeRng([])) == [0.0]


def test_chaos_window_attaches_and_detaches():
    env, streams, net, hosts = build_world()
    sender = SimEndpoint(env, net, Address("h0", "a"))
    SimEndpoint(env, net, Address("h1", "b"))
    plan = FaultPlan().chaos(10.0, 10.0, drop=1.0)
    plan.install(env, net)

    times = [5.0, 15.0, 25.0]  # before, during, after

    def talk(env):
        last = 0.0
        for t in times:
            yield env.timeout(t - last)
            sender.send("h1/b", Message(mtype="X", sender="h0/a"))
            last = t

    env.process(talk(env))
    env.run(until=12.0)
    assert net.chaos is plan.injectors[0]
    env.run(until=40.0)
    assert net.chaos is None
    assert net.stats.dropped_fault == 1
    assert net.stats.delivered == 2


def test_chaos_duplicates_deliver_twice():
    env, streams, net, hosts = build_world()
    sender = SimEndpoint(env, net, Address("h0", "a"))
    inbox = SimEndpoint(env, net, Address("h1", "b"))
    plan = FaultPlan().chaos(0.0, 100.0, duplicate=1.0, delay_max=2.0)
    plan.install(env, net)

    def talk(env):
        yield env.timeout(5.0)
        sender.send("h1/b", Message(mtype="X", sender="h0/a"))

    got = []

    def listen(env):
        while True:
            m = yield from inbox.recv(timeout=20.0)
            if m is None:
                return
            got.append(m.mtype)

    env.process(talk(env))
    env.process(listen(env))
    env.run(until=50.0)
    assert net.stats.duplicated_fault == 1
    assert net.stats.delivered == 2
    assert got == ["X", "X"]


# -- infra outage + adapter integration ------------------------------------

def build_grid_world():
    world = SimWorld(seed=23, jitter=0.0)
    core = build_core(
        world,
        n_schedulers=1, n_gossips=3, n_loggers=1, n_persistents=1,
        ks=[8], n=4, unit_ops_budget=1e5,
        report_period=60.0, gossip_poll_period=60.0, gossip_sync_period=45.0,
    )
    return world, core


def test_infra_outage_darkens_and_restores_pool():
    world, core = build_grid_world()
    env, streams, net = world.env, world.streams, world.network
    factory = model_client_factory(core, work_period=20.0, report_period=60.0)
    pool = UnixPool(env, net, streams, factory, site="paci",
                    n_workstations=3, n_mpp_nodes=0, with_tera_mta=False,
                    mtbf=1e9, restart_delay=5.0)
    pool.deploy()
    net.start()
    plan = FaultPlan().outage(50.0, "unix", restore_after=30.0)
    plan.install(env, net, adapters=[pool])

    env.run(until=60.0)
    assert all(not h.up for h in pool.hosts)
    assert pool.active_host_count() == 0

    env.run(until=200.0)
    assert all(h.up for h in pool.hosts)
    # relight() relaunched a client on every host.
    assert pool.active_host_count() == 3
    assert plan.stats.outages == 1 and plan.stats.restores == 1


def test_crash_reboot_respawns_adapter_client():
    world, core = build_grid_world()
    env, streams, net = world.env, world.streams, world.network
    factory = model_client_factory(core, work_period=20.0, report_period=60.0)
    pool = UnixPool(env, net, streams, factory, site="paci",
                    n_workstations=2, n_mpp_nodes=0, with_tera_mta=False,
                    mtbf=1e9, restart_delay=5.0)
    pool.deploy()
    net.start()
    plan = FaultPlan().crash(50.0, "unix-ws0", reboot_after=20.0)
    plan.install(env, net, adapters=[pool])

    env.run(until=60.0)
    assert "unix-ws0" not in pool.drivers
    env.run(until=200.0)
    # The plan asked the owning adapter to relaunch after the reboot.
    assert "unix-ws0" in pool.drivers
    assert pool.drivers["unix-ws0"].running


# -- gossip pool under faults ----------------------------------------------

def clique_views(core):
    return [tuple(sorted(g.clique.members)) for g in core.gossips]


def test_partition_splits_and_remerges_gossip_cliques():
    world, core = build_grid_world()
    env, net = world.env, world.network
    net.start()
    # gossip0 sits at ucsd; gossip1/gossip2 at utk/uva.
    plan = FaultPlan().partition(
        300.0, [["ucsd", "ncsa"], ["utk", "uva"]], heal_after=900.0)
    plan.install(env, net)

    env.run(until=250.0)
    full = tuple(sorted(core.gossip_contacts))
    assert clique_views(core) == [full, full, full]

    env.run(until=1100.0)  # partition in force since t=300
    views = clique_views(core)
    assert views[0] == (core.gossip_contacts[0],)
    assert views[1] == views[2] == tuple(sorted(core.gossip_contacts[1:]))

    env.run(until=1600.0)  # healed at t=1200
    assert clique_views(core) == [full, full, full]
    assert plan.stats.heals == 1


def test_crash_during_sync_preserves_registered_state():
    world, core = build_grid_world()
    env = world.env
    factory = model_client_factory(core, work_period=20.0, report_period=60.0)
    host = world.host("cli0", site="ucsd")
    host.start()
    world.spawn(host, "ramsey", factory(host, "test", 0))
    world.network.start()

    # Crash one gossip mid-run (amid its poll/sync rounds) and reboot it;
    # the world relaunches the same component just after the reboot.
    world.install(FaultPlan().crash(200.0, "gossip1", reboot_after=120.0))
    crashed = core.gossips[1]

    env.run(until=150.0)
    assert any("cli0/ramsey" in g.registry for g in core.gossips)

    env.run(until=250.0)  # gossip1 is down; survivors keep the record
    survivors = [g for g in core.gossips if g is not crashed]
    assert any("cli0/ramsey" in g.registry for g in survivors)

    env.run(until=900.0)
    # The rebooted gossip rejoined the clique with its in-memory state,
    # and the client's registration survived the whole episode.
    full = tuple(sorted(core.gossip_contacts))
    assert clique_views(core) == [full, full, full]
    assert any("cli0/ramsey" in g.registry for g in core.gossips)
    relaunched = world.services["gossip1/gossip"]
    assert relaunched.running and relaunched.component is crashed

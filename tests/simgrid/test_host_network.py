"""Tests for hosts, load models, RNG streams, and the simulated network."""

import numpy as np
import pytest

from repro.simgrid.engine import Environment, Interrupt
from repro.simgrid.host import Host, HostDown, HostSpec
from repro.simgrid.load import (
    ComposedLoad,
    ConstantLoad,
    DiurnalLoad,
    EventSchedule,
    MeanRevertingLoad,
    ScheduledEvent,
)
from repro.simgrid.network import Address, Network
from repro.simgrid.rand import RngStreams


# ---------------------------------------------------------------- rng


def test_rng_streams_reproducible_and_independent():
    a = RngStreams(seed=7)
    b = RngStreams(seed=7)
    assert a.get("x").random() == b.get("x").random()
    # Different names differ; creation order does not matter.
    c = RngStreams(seed=7)
    c.get("y")  # create y first
    assert c.get("x").random() == RngStreams(seed=7).get("x").random()


def test_rng_streams_seed_changes_stream():
    assert RngStreams(1).get("x").random() != RngStreams(2).get("x").random()


def test_rng_child_prefixing():
    root = RngStreams(seed=3)
    child = root.child("condor")
    assert child.get("h1").random() == RngStreams(3).get("condor:h1").random()


def test_rng_same_stream_cached():
    root = RngStreams(0)
    assert root.get("a") is root.get("a")


# ---------------------------------------------------------------- load models


def test_constant_load():
    m = ConstantLoad(0.5)
    rng = np.random.default_rng(0)
    assert m.advance(0, 30, rng) == 0.5


def test_constant_load_validates():
    with pytest.raises(ValueError):
        ConstantLoad(1.5)


def test_mean_reverting_stays_in_bounds_and_near_mean():
    m = MeanRevertingLoad(mean=0.7, sigma=0.005)
    rng = np.random.default_rng(42)
    values = [m.advance(i * 30.0, 30.0, rng) for i in range(2000)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert abs(np.mean(values[200:]) - 0.7) < 0.15


def test_mean_reverting_reset():
    m = MeanRevertingLoad(mean=0.5, initial=0.9)
    rng = np.random.default_rng(0)
    m.advance(0, 30, rng)
    m.reset()
    assert m._x == 0.9


def test_diurnal_trough_and_peak():
    m = DiurnalLoad(day_trough=0.3, night_peak=0.9, trough_hour=14.0, noise_sigma=0.0)
    rng = np.random.default_rng(0)
    at_trough = m.advance(14 * 3600.0, 30, rng)
    at_peak = m.advance(2 * 3600.0, 30, rng)
    assert at_trough == pytest.approx(0.3, abs=1e-9)
    assert at_peak == pytest.approx(0.9, abs=1e-9)


def test_scheduled_event_window_and_ramp():
    ev = ScheduledEvent(start=100, end=200, factor=0.4, ramp=50)
    assert ev.multiplier(50) == 1.0
    assert ev.multiplier(150) == 0.4
    assert ev.multiplier(225) == pytest.approx(0.7)
    assert ev.multiplier(300) == 1.0


def test_event_schedule_composes_multiplicatively():
    sched = EventSchedule([
        ScheduledEvent(0, 100, 0.5),
        ScheduledEvent(50, 150, 0.5),
    ])
    rng = np.random.default_rng(0)
    assert sched.advance(75, 30, rng) == pytest.approx(0.25)
    assert sched.advance(125, 30, rng) == pytest.approx(0.5)


def test_composed_load():
    m = ComposedLoad(ConstantLoad(0.5), ConstantLoad(0.5))
    rng = np.random.default_rng(0)
    assert m.advance(0, 30, rng) == pytest.approx(0.25)


# ---------------------------------------------------------------- hosts


def make_host(env, name="h1", **kw):
    streams = RngStreams(seed=1)
    spec = HostSpec(name=name, **kw)
    return Host(env, spec, streams)


def test_host_effective_speed_tracks_load():
    env = Environment()
    host = make_host(env, speed=1000.0, load_model=ConstantLoad(0.25))
    host.start()
    env.run(until=31)
    assert host.effective_speed() == pytest.approx(250.0)


def test_host_down_kills_guests_with_cause():
    env = Environment()
    host = make_host(env)
    host.start()
    outcome = []

    def guest(env):
        try:
            yield env.timeout(1000)
        except Interrupt as i:
            outcome.append(i.cause)

    host.spawn(guest(env), "worker")

    def killer(env):
        yield env.timeout(10)
        host.go_down("reclaimed")

    env.process(killer(env))
    env.run(until=20)
    assert len(outcome) == 1
    assert isinstance(outcome[0], HostDown)
    assert outcome[0].reason == "reclaimed"
    assert host.effective_speed() == 0.0


def test_host_spawn_on_down_host_rejected():
    env = Environment()
    host = make_host(env)
    host.go_down()

    def guest(env):
        yield env.timeout(1)

    with pytest.raises(RuntimeError):
        host.spawn(guest(env), "w")


def test_host_guest_deregisters_on_exit():
    env = Environment()
    host = make_host(env)

    def guest(env):
        yield env.timeout(5)

    host.spawn(guest(env), "w")
    assert host.guest_names() == ["w"]
    env.run()
    assert host.guest_names() == []


def test_host_go_down_idempotent():
    env = Environment()
    host = make_host(env)
    host.go_down()
    host.go_down()
    assert not host.up
    host.go_up()
    host.go_up()
    assert host.up


# ---------------------------------------------------------------- network


def build_net(n_hosts=2, sites=None, **net_kw):
    env = Environment()
    streams = RngStreams(seed=5)
    net = Network(env, streams, jitter=0.0, **net_kw)
    hosts = []
    for i in range(n_hosts):
        site = sites[i] if sites else "default"
        h = Host(env, HostSpec(name=f"h{i}", site=site), streams)
        net.add_host(h)
        hosts.append(h)
    return env, net, hosts


def test_address_parse_roundtrip():
    a = Address("gateway", "gossip")
    assert Address.parse(str(a)) == a
    with pytest.raises(ValueError):
        Address.parse("noport")


def test_network_delivers_payload():
    env, net, hosts = build_net()
    dst = Address("h1", "svc")
    box = net.bind(dst)
    src = Address("h0", "cli")
    got = []

    def receiver(env):
        d = yield box.get()
        got.append(d)

    env.process(receiver(env))
    net.send(src, dst, b"hello")
    env.run()
    assert got[0].payload == b"hello"
    assert got[0].src == src
    assert got[0].delivered_at > 0
    assert net.stats.delivered == 1


def test_network_drop_when_dst_down():
    env, net, hosts = build_net()
    dst = Address("h1", "svc")
    net.bind(dst)
    hosts[1].go_down()
    net.send(Address("h0", "c"), dst, b"x")
    env.run()
    assert net.stats.delivered == 0
    assert net.stats.dropped_down == 1


def test_network_drop_when_unbound():
    env, net, hosts = build_net()
    net.send(Address("h0", "c"), Address("h1", "nobody"), b"x")
    env.run()
    assert net.stats.dropped_unbound == 1


def test_network_drop_across_partition():
    env, net, hosts = build_net(sites=["east", "west"])
    dst = Address("h1", "svc")
    net.bind(dst)
    net.set_partitions([["east"], ["west"]])
    net.send(Address("h0", "c"), dst, b"x")
    env.run()
    assert net.stats.dropped_partition == 1
    # Healing restores delivery.
    net.set_partitions([])
    net.send(Address("h0", "c"), dst, b"x")
    env.run()
    assert net.stats.delivered == 1


def test_network_intra_site_faster_than_wan():
    env, net, hosts = build_net(sites=["a", "b"])
    local = net.delay("h0", "h0", 100)
    wan = net.delay("h0", "h1", 100)
    assert local < wan


def test_network_site_latency_override():
    env, net, hosts = build_net(sites=["a", "b"])
    net.set_site_latency("a", "b", 1.5)
    assert net.delay("h0", "h1", 0) == pytest.approx(1.5)


def test_network_congestion_scales_delay():
    env, net, hosts = build_net(
        sites=["a", "b"],
        congestion_model=EventSchedule([ScheduledEvent(0, 1000, 0.25)]),
    )
    base = net.delay("h0", "h1", 1000)
    net.start()
    env.run(until=1)
    congested = net.delay("h0", "h1", 1000)
    assert congested == pytest.approx(base * 4.0)


def test_network_bind_duplicate_rejected():
    env, net, hosts = build_net()
    a = Address("h0", "p")
    net.bind(a)
    with pytest.raises(ValueError):
        net.bind(a)
    net.unbind(a)
    net.bind(a)  # rebinding after unbind is fine


def test_network_message_in_flight_survives_sender_death():
    """Paper §2.1: no keep-alives; a message already sent is delivered even
    if the sender dies meanwhile."""
    env, net, hosts = build_net()
    dst = Address("h1", "svc")
    box = net.bind(dst)
    net.send(Address("h0", "c"), dst, b"x")
    hosts[0].go_down()
    env.run()
    assert net.stats.delivered == 1
    assert len(box.items) == 1


# ---------------------------------------------------------------- trace load


def test_trace_load_step_hold():
    from repro.simgrid.load import TraceLoad

    m = TraceLoad(times=[0, 10, 20], values=[0.2, 0.8, 0.5])
    rng = np.random.default_rng(0)
    assert m.advance(0, 1, rng) == pytest.approx(0.2)
    assert m.advance(9.9, 1, rng) == pytest.approx(0.2)
    assert m.advance(10, 1, rng) == pytest.approx(0.8)
    assert m.advance(19, 1, rng) == pytest.approx(0.8)
    assert m.advance(25, 1, rng) == pytest.approx(0.5)  # hold past end
    assert m.advance(-5, 1, rng) == pytest.approx(0.2)  # clamp before start


def test_trace_load_loops():
    from repro.simgrid.load import TraceLoad

    # Final sample marks the period end; the trace spans [0, 20).
    m = TraceLoad(times=[0, 10, 20], values=[0.1, 0.9, 0.9], loop=True)
    rng = np.random.default_rng(0)
    assert m.advance(5, 1, rng) == pytest.approx(0.1)
    assert m.advance(25, 1, rng) == pytest.approx(0.1)  # 25 % 20 = 5
    assert m.advance(35, 1, rng) == pytest.approx(0.9)  # 35 % 20 = 15


def test_trace_load_clips_and_validates():
    from repro.simgrid.load import TraceLoad

    m = TraceLoad(times=[0], values=[3.0])
    rng = np.random.default_rng(0)
    assert m.advance(0, 1, rng) == 1.0  # clipped into [0, 1]
    with pytest.raises(ValueError):
        TraceLoad(times=[], values=[])
    with pytest.raises(ValueError):
        TraceLoad(times=[0, 1], values=[0.5])
    with pytest.raises(ValueError):
        TraceLoad(times=[5, 1], values=[0.5, 0.5])


def test_trace_load_drives_a_host():
    from repro.simgrid.load import TraceLoad

    env = Environment()
    streams = RngStreams(seed=1)
    spec = HostSpec(name="h", speed=1000.0,
                    load_model=TraceLoad(times=[0, 60], values=[1.0, 0.5]),
                    load_period=30)
    host = Host(env, spec, streams)
    host.start()
    env.run(until=31)
    assert host.effective_speed() == pytest.approx(1000.0)
    env.run(until=91)
    assert host.effective_speed() == pytest.approx(500.0)


def test_address_parse_raises_canonical_error():
    from repro.simgrid.network import AddressError

    for bad in ("noport", "", "a/b/c", "/", "a/", "/b"):
        with pytest.raises(AddressError):
            Address.parse(bad)
    # AddressError stays a ValueError for pre-existing callers.
    assert issubclass(AddressError, ValueError)

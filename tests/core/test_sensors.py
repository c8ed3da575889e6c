"""Tests for the NWS sensor mesh."""

import pytest

from repro.core.component import NullRuntime, Send
from repro.core.forecasting.sensors import (
    NWS_FORECAST,
    NWS_PONG,
    NWS_QUERY,
    T_PROBE,
    NWSSensor,
)
from repro.core.linguafranca.endpoint import SimEndpoint
from repro.core.linguafranca.messages import Message
from repro.core.simdriver import SimDriver
from repro.simgrid.engine import Environment
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.load import EventSchedule, ScheduledEvent
from repro.simgrid.network import Address, Network
from repro.simgrid.rand import RngStreams


def build_mesh(n=3, sites=None, **net_kw):
    env = Environment()
    streams = RngStreams(seed=6)
    net = Network(env, streams, jitter=0.0, **net_kw)
    contacts = [f"nws{i}/nws" for i in range(n)]
    sensors = []
    hosts = []
    for i in range(n):
        h = Host(env, HostSpec(name=f"nws{i}",
                               site=(sites[i] if sites else "core")), streams)
        net.add_host(h)
        hosts.append(h)
        sensor = NWSSensor(f"nws{i}", contacts, probe_period=10)
        SimDriver(env, net, h, "nws", sensor, streams).start()
        sensors.append(sensor)
    return env, net, hosts, sensors, contacts


def test_sensors_measure_peer_rtts():
    env, net, hosts, sensors, contacts = build_mesh(3)
    env.run(until=300)
    for sensor in sensors:
        for peer in contacts:
            if peer == sensor.contact:
                continue
            fc = sensor.forecast_for(peer)
            assert fc is not None
            assert fc.value > 0
    assert all(s.pongs_received > 0 for s in sensors)


def test_rtt_forecast_reflects_topology():
    """A far site's forecast RTT exceeds a near site's."""
    env, net, hosts, sensors, contacts = build_mesh(3, sites=["a", "a", "b"])
    net.set_site_latency("a", "b", 0.8)
    env.run(until=600)
    near = sensors[0].forecast_for(contacts[1]).value  # a <-> a
    far = sensors[0].forecast_for(contacts[2]).value  # a <-> b
    assert far > near * 5


def test_query_protocol():
    env, net, hosts, sensors, contacts = build_mesh(2)
    ch = Host(env, HostSpec(name="client"), streams=RngStreams(seed=1))
    net.add_host(ch)
    client = SimEndpoint(env, net, Address("client", "q"))

    def ask(env):
        yield env.timeout(120)  # let measurements accumulate
        reply, _ = yield from client.request(
            contacts[0], Message(mtype=NWS_QUERY, sender="",
                                 body={"peer": contacts[1]}), timeout=10)
        return reply

    proc = env.process(ask(env))
    env.run(until=200)
    reply = proc.value
    assert reply.mtype == NWS_FORECAST
    assert reply.body["value"] > 0
    assert "method" in reply.body
    assert sensors[0].queries_served == 1


def test_query_unknown_peer_returns_none():
    env, net, hosts, sensors, contacts = build_mesh(2)
    ch = Host(env, HostSpec(name="client"), streams=RngStreams(seed=1))
    net.add_host(ch)
    client = SimEndpoint(env, net, Address("client", "q"))

    def ask(env):
        reply, _ = yield from client.request(
            contacts[0], Message(mtype=NWS_QUERY, sender="",
                                 body={"peer": "nobody/nws"}), timeout=10)
        return reply

    proc = env.process(ask(env))
    env.run(until=50)
    assert proc.value.body["value"] is None


def test_sensor_survives_dead_peer():
    """Probes to a dead peer are silently lost; live-peer measurement
    continues and the dead peer's forecast goes stale, not wrong."""
    env, net, hosts, sensors, contacts = build_mesh(3)
    env.run(until=100)
    before = sensors[0].forecast_for(contacts[1]).samples
    hosts[2].go_down("failure")
    env.run(until=400)
    after = sensors[0].forecast_for(contacts[1])
    assert after.samples > before  # live peer still measured
    assert len(sensors[0].outstanding) <= len(contacts)  # no probe leak


def test_forecast_tracks_congestion_change():
    env, net, hosts, sensors, contacts = build_mesh(
        2, sites=["a", "b"],
        congestion_model=EventSchedule([ScheduledEvent(500, 5000, 0.2)]),
        congestion_period=10,
    )
    net.start()
    env.run(until=450)
    quiet = sensors[0].forecast_for(contacts[1]).value
    env.run(until=1500)
    congested = sensors[0].forecast_for(contacts[1]).value
    assert congested > 2 * quiet


def test_late_pong_is_not_recorded_against_the_next_probe():
    """Probes at t=0 and t=10; probe 1's PONG arrives at 10.5, probe 2's
    at 11.1. Probe 1 was abandoned, so the only RTT is probe 2's 1.1 s
    (keyed on the peer alone, the late PONG closed probe 2's timer with
    0.5 s and the real one was dropped)."""
    peer = "b/nws"
    sensor = NWSSensor("a", ["a/nws", peer], probe_period=10)
    sensor.bind_runtime(NullRuntime("a/nws"))
    seqs = [eff.message.body["seq"] for now in (0.0, 10.0)
            for eff in sensor.on_timer(T_PROBE, now) if isinstance(eff, Send)]

    def pong(seq, now):
        sensor.on_message(Message(mtype=NWS_PONG, sender=peer,
                                  body={"seq": seq}), now)

    for junk in (None, "2", 2.0, True, [2]):  # not an int: ignored
        pong(junk, 10.2)
    pong(seqs[0], 10.5)
    pong(seqs[1], 11.1)
    pong(seqs[1], 11.4)  # a duplicate: already closed
    fc = sensor.forecast_for(peer)
    assert (fc.samples, fc.value) == (1, pytest.approx(1.1))
    assert sensor.pongs_received == 1 and sensor.outstanding == {}

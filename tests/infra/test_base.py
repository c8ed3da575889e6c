"""Tests for the infrastructure adapter base machinery."""

import pytest

from repro.infra.base import InfraAdapter
from repro.ramsey.client import ModelEngine, RamseyClient
from repro.simgrid.engine import Environment
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.load import ComposedLoad, ConstantLoad, EventSchedule, ScheduledEvent
from repro.simgrid.network import Network
from repro.simgrid.rand import RngStreams


class ToyAdapter(InfraAdapter):
    name = "toy"

    def __init__(self, *args, n=2, **kwargs):
        super().__init__(*args, **kwargs)
        self.n = n

    def deploy(self):
        for i in range(self.n):
            host = self._add_host(f"toy-{i}", speed=1e6,
                                  load_model=ConstantLoad(0.5))
            self.launch_client(host)


def factory(host, infra, idx):
    return RamseyClient(f"{infra}-{idx}", schedulers=["nowhere/s"],
                        engine=ModelEngine(), infra=infra, seed=idx)


def build(n=2, **kw):
    env = Environment()
    streams = RngStreams(seed=3)
    net = Network(env, streams, jitter=0.0)
    adapter = ToyAdapter(env, net, streams, factory, n=n, **kw)
    adapter.deploy()
    return env, net, adapter


def test_deploy_and_accounting():
    env, net, adapter = build(n=3)
    env.run(until=10)
    assert all(h.up for h in adapter.hosts)
    assert adapter.active_host_count() == 3
    assert adapter.clients_started == 3
    # Effective speed: 1e6 * 0.5 availability each.
    assert sum(h.effective_speed() for h in adapter.hosts) == pytest.approx(
        3 * 5e5)


def test_launch_is_idempotent_per_host():
    env, net, adapter = build(n=1)
    assert adapter.launch_client(adapter.hosts[0]) is None  # already running
    assert adapter.clients_started == 1


def test_launch_refused_on_down_host():
    env, net, adapter = build(n=1)
    adapter.hosts[0].go_down()
    env.run(until=5)
    assert adapter.launch_client(adapter.hosts[0]) is None


def test_client_exit_hook_and_counters():
    exits = []

    class HookedAdapter(ToyAdapter):
        def on_client_exit(self, host):
            exits.append(host.name)

    env = Environment()
    streams = RngStreams(seed=3)
    net = Network(env, streams, jitter=0.0)
    adapter = HookedAdapter(env, net, streams, factory, n=2)
    adapter.deploy()
    env.run(until=10)
    adapter.hosts[0].go_down("chaos")
    env.run(until=20)
    assert exits == ["toy-0"]
    assert adapter.clients_lost == 1
    assert adapter.active_host_count() == 1


def test_respawn_later_relaunches_when_up():
    env, net, adapter = build(n=1)
    env.run(until=5)
    host = adapter.hosts[0]
    host.go_down("blip")
    env.run(until=10)
    host.go_up()
    adapter.respawn_later(host, delay=5)
    env.run(until=30)
    assert adapter.active_host_count() == 1
    assert adapter.clients_started == 2


def test_respawn_later_noop_when_host_stays_down():
    env, net, adapter = build(n=1)
    env.run(until=5)
    adapter.hosts[0].go_down("dead")
    adapter.respawn_later(adapter.hosts[0], delay=5)
    env.run(until=60)
    assert adapter.active_host_count() == 0
    assert adapter.clients_started == 1


def test_ambient_composes_into_host_load():
    env, net, adapter = build(
        n=1, ambient=EventSchedule([ScheduledEvent(0, 1000, factor=0.5)]))
    adapter.hosts[0].start()
    env.run(until=120)
    # Own model 0.5 x ambient 0.5 = 0.25.
    assert adapter.hosts[0].availability == pytest.approx(0.25)


def test_streams_namespaced_per_adapter():
    env = Environment()
    streams = RngStreams(seed=3)
    net = Network(env, streams, jitter=0.0)
    a = ToyAdapter(env, net, streams, factory)
    # The adapter's streams are prefixed with its name: independent of root.
    assert a.streams.get("x").random() == RngStreams(3).get("toy:x").random()

"""Assorted behavior tests filling coverage gaps across modules."""

import pytest

from repro.core.linguafranca.endpoint import SimEndpoint
from repro.core.linguafranca.messages import Message
from repro.core.services.scheduler import QueueWorkSource, SchedulerServer
from repro.core.component import NullRuntime, Send
from repro.simgrid.engine import Environment, Event
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.network import Address, Network
from repro.simgrid.rand import PrefixedStreams, RngStreams


def fabric(n=2):
    env = Environment()
    streams = RngStreams(seed=8)
    net = Network(env, streams, jitter=0.0)
    hosts = []
    for i in range(n):
        h = Host(env, HostSpec(name=f"h{i}"), streams)
        net.add_host(h)
        hosts.append(h)
    return env, streams, net, hosts


# ---------------------------------------------------------------- network


def test_delay_scales_with_payload_size():
    env, streams, net, hosts = fabric()
    small = net.delay("h0", "h1", 100)
    large = net.delay("h0", "h1", 1_000_000)
    assert large > small
    # The difference is exactly the transfer term at current congestion.
    assert large - small == pytest.approx((1_000_000 - 100) / net.bandwidth)


def test_jitter_bounds_delay():
    env = Environment()
    streams = RngStreams(seed=9)
    net = Network(env, streams, jitter=0.5, base_latency=1.0)
    for name in ("a", "b"):
        net.add_host(Host(env, HostSpec(name=name, site=name), streams))
    delays = [net.delay("a", "b", 0) for _ in range(200)]
    assert all(1.0 <= d <= 1.5 + 1e-9 for d in delays)
    assert max(delays) - min(delays) > 0.1  # jitter actually varies


# ---------------------------------------------------------------- host


def test_spawn_same_name_replaces_registry_entry():
    env, streams, net, hosts = fabric()
    host = hosts[0]

    class Guest(Event):
        """The handle pair a host kills through: is_alive, interrupt."""
        cause = None

        @property
        def is_alive(self):
            return not self.triggered

        def interrupt(self, cause):
            self.cause = cause

    first, second = Guest(env), Guest(env)
    host.adopt(first, "w")
    host.adopt(second, "w")
    assert sorted(host._guests) == ["w"]
    # Killing the host interrupts only registry-tracked guests.
    host.go_down()
    assert second.cause is not None and second.cause.host is host
    # The first (orphaned) guest is no longer tracked.
    assert first.cause is None
    assert host._guests == {}


# ---------------------------------------------------------------- endpoint


def test_backlog_preserves_order():
    env, streams, net, hosts = fabric()
    server = SimEndpoint(env, net, Address("h1", "svc"))
    client = SimEndpoint(env, net, Address("h0", "cli"))

    def server_proc(env):
        msg = yield from server.recv(None)
        # Three pushes before the correlated reply.
        for i in range(3):
            server.send(msg.sender, Message(mtype=f"PUSH{i}", sender=server.contact))
        server.send(msg.sender, msg.reply("REPLY", sender=server.contact))

    def client_proc(env):
        reply, _ = yield from client.request(
            "h1/svc", Message(mtype="ASK", sender=""), timeout=10)
        got = []
        for _ in range(3):
            m = yield from client.recv(timeout=5)
            got.append(m.mtype)
        return reply.mtype, got

    env.process(server_proc(env))
    cp = env.process(client_proc(env))
    env.run(until=60)
    assert cp.value == ("REPLY", ["PUSH0", "PUSH1", "PUSH2"])


# ---------------------------------------------------------------- scheduler


def test_hello_after_reap_gets_fresh_unit():
    work = QueueWorkSource([{"id": "u0"}, {"id": "u1"}])
    sched = SchedulerServer("s", work, report_period=10, dead_factor=1)
    sched.bind_runtime(NullRuntime(contact="s/sched"))
    sched.on_start(0.0)
    sched.on_message(Message(mtype="SCH_HELLO", sender="c/1", req_id=1), 1.0)
    sched.on_timer("sch:reap", 1000.0)  # reaps c/1, recycles u0
    assert sched.active_clients() == []
    effects = sched.on_message(Message(mtype="SCH_HELLO", sender="c/1", req_id=2),
                               1001.0)
    send = [e for e in effects if isinstance(e, Send)][0]
    assert send.message.body["unit"]["id"] == "u0"  # recycled front-of-queue


def test_scheduler_forecast_bank_pruned_on_reap():
    from repro.core.forecasting.benchmarking import event_tag

    work = QueueWorkSource([{"id": "u0"}])
    sched = SchedulerServer("s", work, report_period=10, dead_factor=1)
    sched.bind_runtime(NullRuntime(contact="s/sched"))
    sched.on_message(Message(mtype="SCH_REPORT", sender="c/1",
                             body={"rate": 5.0}), 1.0)
    assert event_tag("c/1", "RATE") in sched.forecasts.tags()
    sched.on_timer("sch:reap", 1000.0)
    assert event_tag("c/1", "RATE") not in sched.forecasts.tags()


# ---------------------------------------------------------------- rng


def test_prefixed_streams_nest():
    root = RngStreams(seed=5)
    nested = root.child("a").child("b")
    assert isinstance(nested, PrefixedStreams)
    assert nested.get("x").random() == RngStreams(5).get("a:b:x").random()

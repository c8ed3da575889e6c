"""Tests for the simulated lingua-franca endpoint."""

import pytest

from repro.core.linguafranca.endpoint import SimEndpoint
from repro.core.linguafranca.messages import Message
from repro.simgrid.engine import Environment
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.network import Address, Network
from repro.simgrid.rand import RngStreams


@pytest.fixture
def fabric():
    env = Environment()
    streams = RngStreams(seed=11)
    net = Network(env, streams, jitter=0.0)
    hosts = {}
    for name in ("alpha", "beta"):
        h = Host(env, HostSpec(name=name), streams)
        net.add_host(h)
        hosts[name] = h
    return env, net, hosts


def test_send_recv_roundtrip(fabric):
    env, net, hosts = fabric
    server = SimEndpoint(env, net, Address("beta", "svc"))
    client = SimEndpoint(env, net, Address("alpha", "cli"))

    def server_proc(env):
        msg = yield from server.recv(timeout=10)
        return msg

    def client_proc(env):
        client.send("beta/svc", Message(mtype="HELLO", sender="", body={"x": 1}))
        yield env.timeout(0)

    sp = env.process(server_proc(env))
    env.process(client_proc(env))
    env.run(until=20)
    msg = sp.value
    assert msg.mtype == "HELLO"
    assert msg.body == {"x": 1}
    # Sender auto-filled from the endpoint binding.
    assert msg.sender == "alpha/cli"


def test_recv_timeout_returns_none(fabric):
    env, net, hosts = fabric
    server = SimEndpoint(env, net, Address("beta", "svc"))

    def server_proc(env):
        msg = yield from server.recv(timeout=3)
        return (msg, env.now)

    sp = env.process(server_proc(env))
    env.run(until=10)
    assert sp.value == (None, 3)


def test_request_reply_rtt(fabric):
    env, net, hosts = fabric
    server = SimEndpoint(env, net, Address("beta", "svc"))
    client = SimEndpoint(env, net, Address("alpha", "cli"))

    def server_proc(env):
        while True:
            msg = yield from server.recv(timeout=None)
            reply = msg.reply("PONG", sender=server.contact, body={"ok": True})
            server.send(msg.sender, reply)

    def client_proc(env):
        reply, rtt = yield from client.request(
            "beta/svc", Message(mtype="PING", sender=""), timeout=10
        )
        return reply, rtt

    env.process(server_proc(env))
    cp = env.process(client_proc(env))
    env.run(until=30)
    reply, rtt = cp.value
    assert reply.mtype == "PONG"
    assert reply.body == {"ok": True}
    assert rtt is not None and rtt > 0


def test_request_timeout_when_server_dead(fabric):
    env, net, hosts = fabric
    client = SimEndpoint(env, net, Address("alpha", "cli"))

    def client_proc(env):
        reply, rtt = yield from client.request(
            "beta/gone", Message(mtype="PING", sender=""), timeout=2
        )
        return (reply, rtt, env.now)

    cp = env.process(client_proc(env))
    env.run(until=10)
    assert cp.value == (None, None, 2)


def test_uncorrelated_messages_kept_in_backlog(fabric):
    """A push message arriving while awaiting a reply must not be lost."""
    env, net, hosts = fabric
    server = SimEndpoint(env, net, Address("beta", "svc"))
    client = SimEndpoint(env, net, Address("alpha", "cli"))

    def server_proc(env):
        msg = yield from server.recv(timeout=None)
        # Send an unrelated push first, then the actual reply.
        server.send(msg.sender, Message(mtype="GOSSIP_PUSH", sender=server.contact))
        server.send(msg.sender, msg.reply("ANSWER", sender=server.contact))
        yield env.timeout(0)

    def client_proc(env):
        reply, _ = yield from client.request(
            "beta/svc", Message(mtype="ASK", sender=""), timeout=10
        )
        backlog_msg = yield from client.recv(timeout=1)
        return reply.mtype, backlog_msg.mtype

    env.process(server_proc(env))
    cp = env.process(client_proc(env))
    env.run(until=30)
    assert cp.value == ("ANSWER", "GOSSIP_PUSH")


def test_corrupt_bytes_counted_and_skipped(fabric):
    env, net, hosts = fabric
    server = SimEndpoint(env, net, Address("beta", "svc"))
    # Inject raw garbage directly through the network.
    net.send(Address("alpha", "x"), Address("beta", "svc"), b"garbage-bytes")
    client = SimEndpoint(env, net, Address("alpha", "cli"))
    client.send("beta/svc", Message(mtype="REAL", sender=""))

    def server_proc(env):
        msg = yield from server.recv(timeout=10)
        return msg.mtype

    sp = env.process(server_proc(env))
    env.run(until=20)
    assert sp.value == "REAL"
    assert server.decode_errors == 1


def test_raw_bytes_to_a_mailbox_are_parsed(fabric, monkeypatch):
    """A typed send hands the receiver the sender's record; a bare
    ``Network.send`` has none, so the mailbox path must parse the bytes."""
    env, net, hosts = fabric
    server = SimEndpoint(env, net, Address("beta", "svc"))
    client = SimEndpoint(env, net, Address("alpha", "cli"))
    decodes = []
    decode = Message.decode
    monkeypatch.setattr(Message, "decode",
                        lambda data: decodes.append(data) or decode(data))
    typed = Message(mtype="TYPED", sender="", body={"x": [1, 2]})
    raw = Message(mtype="RAW", sender="alpha/x", body={"x": [1, 2]}).encode()
    client.send("beta/svc", typed)
    net.send(Address("alpha", "x"), Address("beta", "svc"), raw)
    net.send(Address("alpha", "x"), Address("beta", "svc"), raw[:-3])

    def server_proc(env):
        got = []
        while len(got) < 2:
            got.append((yield from server.recv(timeout=10)))
        return got

    sp = env.process(server_proc(env))
    env.run(until=20)
    parsed, carried = sorted(sp.value, key=lambda m: m.mtype)
    assert carried is typed  # the record rode along: nothing to parse
    assert (parsed.mtype, parsed.sender, parsed.body) == (
        "RAW", "alpha/x", {"x": [1, 2]})
    assert sorted(decodes) == sorted([raw, raw[:-3]])
    assert server.decode_errors == 1


def test_close_unbinds(fabric):
    env, net, hosts = fabric
    ep = SimEndpoint(env, net, Address("beta", "svc"))
    assert net.is_bound(Address("beta", "svc"))
    ep.close()
    assert not net.is_bound(Address("beta", "svc"))
    ep.close()  # idempotent

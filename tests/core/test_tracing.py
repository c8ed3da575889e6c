"""Causal-trace propagation through the simulation driver (satellite of
the observability PR): message headers carry trace context, retransmitted
reliable sends stay on their root trace, and give-ups surface as
``gave-up`` spans wrapping ``on_send_failed``.
"""

from repro.core.component import Component, Send, SetTimer
from repro.core.linguafranca.messages import Message
from repro.core.policy import RetryPolicy
from repro.core.simdriver import SimDriver
from repro.core.telemetry import Telemetry
from repro.simgrid.engine import Environment
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.network import Network
from repro.simgrid.rand import RngStreams


class Echo(Component):
    def on_message(self, message, now):
        if message.mtype == "PING":
            return [Send(message.sender,
                         message.reply("PONG", sender=self.contact))]
        return []


class Caller(Component):
    """Sends one reliable PING at start; records give-ups."""

    def __init__(self, dst, retry):
        super().__init__("caller")
        self.dst = dst
        self.retry = retry
        self.give_ups = []
        self.pongs = 0

    def on_start(self, now):
        return [Send(self.dst,
                     Message(mtype="PING", sender=self.contact, body={}),
                     retry=self.retry, label="the-call")]

    def on_message(self, message, now):
        if message.mtype == "PONG":
            self.pongs += 1
        return []

    def on_send_failed(self, send, now):
        self.give_ups.append((send.label, now))
        return []


def build(telemetry, n_hosts=2):
    env = Environment()
    streams = RngStreams(seed=5)
    net = Network(env, streams, jitter=0.0)
    hosts = []
    for i in range(n_hosts):
        h = Host(env, HostSpec(name=f"h{i}"), streams)
        net.add_host(h)
        hosts.append(h)
    return env, streams, net, hosts


def test_message_headers_carry_trace_and_recv_parents_to_sender():
    tel = Telemetry(trace=True)
    env, streams, net, hosts = build(tel)
    echo = Echo("echo")
    caller = Caller("h1/echo", retry=None)
    SimDriver(env, net, hosts[1], "echo", echo, streams, telemetry=tel).start()
    SimDriver(env, net, hosts[0], "cli", caller, streams, telemetry=tel).start()
    env.run(until=30)
    assert caller.pongs == 1
    tracer = tel.tracer
    (send_ping,) = tracer.named("send PING")
    (recv_ping,) = tracer.named("recv PING")
    (send_pong,) = tracer.named("send PONG")
    (recv_pong,) = tracer.named("recv PONG")
    # One causal chain: the PING's recv is a child of its send, the PONG
    # reply parents to the recv-handler span, and so on back to the
    # caller — all on a single trace id.
    assert recv_ping.trace_id == send_ping.trace_id
    assert recv_ping.parent_id == send_ping.span_id
    assert send_pong.trace_id == send_ping.trace_id
    assert send_pong.parent_id == recv_ping.span_id
    assert recv_pong.parent_id == send_pong.span_id
    assert recv_pong.outcome == "ok"


def test_retransmission_reuses_root_trace_id():
    tel = Telemetry(trace=True)
    env, streams, net, hosts = build(tel)
    # No component bound at the destination: every attempt is dropped,
    # forcing the full retry ladder.
    caller = Caller("h1/nobody", retry=RetryPolicy(max_attempts=3))
    SimDriver(env, net, hosts[0], "cli", caller, streams, telemetry=tel).start()
    env.run(until=600)
    tracer = tel.tracer
    (call,) = tracer.named("call PING")
    retransmits = tracer.named("retransmit PING")
    assert len(retransmits) == 2  # attempts 2 and 3
    for r in retransmits:
        assert r.trace_id == call.trace_id
        assert r.parent_id == call.span_id
        assert r.outcome == "retransmit"
    # Attempt numbers recorded in order.
    assert [r.args["attempt"] for r in retransmits] == [2, 3]


def test_give_up_emits_gave_up_spans_around_on_send_failed():
    tel = Telemetry(trace=True)
    env, streams, net, hosts = build(tel)
    caller = Caller("h1/nobody", retry=RetryPolicy(max_attempts=2))
    SimDriver(env, net, hosts[0], "cli", caller, streams, telemetry=tel).start()
    env.run(until=600)
    assert caller.give_ups and caller.give_ups[0][0] == "the-call"
    tracer = tel.tracer
    (call,) = tracer.named("call PING")
    assert call.outcome == "gave-up"
    (failed,) = tracer.named("send-failed the-call")
    assert failed.outcome == "gave-up"
    assert failed.trace_id == call.trace_id
    assert failed.parent_id == call.span_id


def test_resolved_call_span_finishes_ok():
    tel = Telemetry(trace=True)
    env, streams, net, hosts = build(tel)
    echo = Echo("echo")
    caller = Caller("h1/echo", retry=RetryPolicy(max_attempts=3))
    SimDriver(env, net, hosts[1], "echo", echo, streams, telemetry=tel).start()
    SimDriver(env, net, hosts[0], "cli", caller, streams, telemetry=tel).start()
    env.run(until=60)
    assert caller.pongs == 1
    (call,) = tel.tracer.named("call PING")
    assert call.outcome == "ok"
    assert call.end is not None and call.end > call.start
    assert not tel.tracer.named("retransmit PING")


class TimerChain(Component):
    """A timer armed inside a handler inherits that handler's context."""

    def __init__(self):
        super().__init__("chain")

    def on_start(self, now):
        return [SetTimer("first", 1.0)]

    def on_timer(self, key, now):
        if key == "first":
            return [SetTimer("second", 1.0)]
        return []


def test_timer_spans_chain_through_ambient_context():
    tel = Telemetry(trace=True)
    env, streams, net, hosts = build(tel)
    SimDriver(env, net, hosts[0], "t", TimerChain(), streams,
              telemetry=tel).start()
    env.run(until=10)
    tracer = tel.tracer
    (first,) = tracer.named("timer first")
    (second,) = tracer.named("timer second")
    (start,) = tracer.named("start chain")
    assert first.parent_id == start.span_id
    assert second.parent_id == first.span_id
    assert second.trace_id == start.trace_id


def test_tracing_disabled_leaves_no_spans_and_no_headers():
    tel = Telemetry()  # tracer off
    env, streams, net, hosts = build(tel)
    echo = Echo("echo")
    seen = []

    class Spy(Echo):
        def on_message(self, message, now):
            seen.append(message.trace)
            return super().on_message(message, now)

    caller = Caller("h1/echo", retry=None)
    SimDriver(env, net, hosts[1], "echo", Spy("echo"), streams,
              telemetry=tel).start()
    SimDriver(env, net, hosts[0], "cli", caller, streams, telemetry=tel).start()
    env.run(until=30)
    assert caller.pongs == 1
    assert tel.tracer.spans == []
    assert seen == [None]


class Broadcaster(Component):
    """Sends one Message object to every peer at start."""

    def __init__(self, peers):
        super().__init__("bcast")
        self.peers = peers
        self.message = None

    def on_start(self, now):
        self.message = Message(mtype="NEWS", sender=self.contact, body={})
        return [Send(peer, self.message) for peer in self.peers]


def test_one_message_to_three_peers_is_three_sends_and_stays_unstamped():
    tel = Telemetry(trace=True)
    env, streams, net, hosts = build(tel, n_hosts=4)
    seen = []

    class Spy(Component):
        def on_message(self, message, now):
            seen.append(message.trace)
            return []

    for host in hosts[1:]:
        SimDriver(env, net, host, "spy", Spy("spy"), streams,
                  telemetry=tel).start()
    sender = Broadcaster([f"h{i}/spy" for i in (1, 2, 3)])
    SimDriver(env, net, hosts[0], "b", sender, streams, telemetry=tel).start()
    env.run(until=30)
    sends = tel.tracer.named("send NEWS")
    assert len({span.span_id for span in sends}) == 3
    # Each receiver parents to its own send; the component's object was
    # never stamped (the driver transmitted stamped copies).
    assert sorted(seen) == sorted((s.trace_id, s.span_id) for s in sends)
    assert sender.message.trace is None

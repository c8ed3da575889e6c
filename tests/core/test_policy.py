"""Tests for the retry/timeout policy layer and the reliable-send
machinery the drivers build on it."""

import pytest

from repro.core.component import Component, Send
from repro.core.forecasting import ForecastRegistry, event_tag
from repro.core.linguafranca.messages import Message
from repro.core.policy import (SEND, TIMER, Deadlines, ReliableSendTracker,
                               RetryPolicy, TimeoutPolicy)
from repro.core.simdriver import SimDriver
from repro.simgrid.engine import Environment
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.network import Network
from repro.simgrid.rand import RngStreams


# -- TimeoutPolicy ----------------------------------------------------------

def test_static_policy_is_constant():
    pol = TimeoutPolicy.static(3.5)
    assert not pol.dynamic
    assert pol.timeout_for() == 3.5
    assert pol.timeout_for("a/b#PING") == 3.5
    pol.observe("a/b#PING", 99.0)  # no-op without a registry
    assert pol.timeout_for("a/b#PING") == 3.5


def test_forecast_policy_tracks_history():
    pol = TimeoutPolicy.forecast(multiplier=4.0, default=10.0,
                                 floor=0.5, ceiling=120.0)
    assert pol.dynamic
    tag = event_tag("pst0/pst", "PST_STORE")
    # No history yet: the default applies.
    assert pol.timeout_for(tag) == 10.0
    for _ in range(30):
        pol.observe(tag, 2.0)
    # forecast(2.0) x 4 == 8, well inside the clamp.
    assert pol.timeout_for(tag) == pytest.approx(8.0, rel=0.2)
    # Tags are independent.
    assert pol.timeout_for(event_tag("other/p", "PST_STORE")) == 10.0


def test_forecast_policy_clamps_to_floor_and_ceiling():
    pol = TimeoutPolicy.forecast(multiplier=4.0, default=10.0,
                                 floor=1.0, ceiling=5.0)
    fast, slow = "f#X", "s#X"
    for _ in range(30):
        pol.observe(fast, 0.01)
        pol.observe(slow, 60.0)
    assert pol.timeout_for(fast) == 1.0
    assert pol.timeout_for(slow) == 5.0


def test_forecast_policies_can_share_a_registry():
    reg = ForecastRegistry()
    a = TimeoutPolicy.forecast(registry=reg, multiplier=2.0, floor=0.0)
    b = TimeoutPolicy.forecast(registry=reg, multiplier=10.0, floor=0.0,
                               ceiling=1000.0)
    for _ in range(30):
        a.observe("t#Y", 1.0)
    assert a.timeout_for("t#Y") == pytest.approx(2.0, rel=0.2)
    assert b.timeout_for("t#Y") == pytest.approx(10.0, rel=0.2)


# -- RetryPolicy ------------------------------------------------------------

def test_retry_policy_validates():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


def test_retry_policy_attempt_budget():
    pol = RetryPolicy(max_attempts=3)
    assert pol.should_retry(1) and pol.should_retry(2)
    assert not pol.should_retry(3)


def test_retry_policy_backoff_and_clamp():
    pol = RetryPolicy(max_attempts=9, backoff=2.0, jitter=0.0, max_interval=30.0)
    assert pol.interval(1, 4.0) == 4.0
    assert pol.interval(2, 4.0) == 8.0
    assert pol.interval(3, 4.0) == 16.0
    assert pol.interval(4, 4.0) == 30.0  # clamped
    assert pol.interval(8, 4.0) == 30.0


def test_retry_policy_jitter_bounds():
    pol = RetryPolicy(jitter=0.25)
    lo = pol.interval(1, 10.0, rand=0.0)
    mid = pol.interval(1, 10.0, rand=0.5)
    hi = pol.interval(1, 10.0, rand=1.0)
    assert lo == pytest.approx(7.5)
    assert mid == pytest.approx(10.0)
    assert hi == pytest.approx(12.5)


# -- ReliableSendTracker ----------------------------------------------------

def reliable_send(dst="svc/p", mtype="REQ", retry=None, timeout=None):
    return Send(dst, Message(mtype=mtype, sender="cli/c"),
                retry=retry or RetryPolicy(max_attempts=2, jitter=0.0),
                timeout=timeout, label="t")


def make_tracker(default=4.0):
    return ReliableSendTracker(TimeoutPolicy.static(default), lambda: 0.5)


def test_tracker_assigns_req_id_and_resolves():
    tr = make_tracker()
    eff = reliable_send()
    assert eff.message.req_id is None
    tr.track(eff, now=0.0)
    assert eff.message.req_id is not None
    assert len(tr) == 1

    assert tr.resolve(None, 1.0) is None
    assert tr.resolve(12345678, 1.0) is None  # unknown correlation id
    pending = tr.resolve(eff.message.req_id, 1.0)
    assert pending is not None and pending.eff is eff
    assert len(tr) == 0 and tr.resolved == 1


def test_tracker_resend_then_give_up():
    tr = make_tracker(default=4.0)
    eff = reliable_send()
    tr.track(eff, 0.0)
    assert tr.due(3.9) == []

    [(action, pending)] = tr.due(4.0)
    assert action == "resend" and pending.attempt == 2
    # Exponential backoff: the second wait doubles.
    assert pending.deadline == pytest.approx(4.0 + 8.0)

    [(action, pending)] = tr.due(12.0)
    assert action == "give_up" and pending.eff is eff
    assert len(tr) == 0
    assert (tr.tracked, tr.retries, tr.give_ups) == (1, 1, 1)


def test_tracker_per_send_timeout_overrides():
    tr = make_tracker(default=100.0)
    explicit = reliable_send(timeout=1.0)
    policied = reliable_send(timeout=TimeoutPolicy.static(7.0))
    tr.track(explicit, 0.0)
    tr.track(policied, 0.0)
    deadlines = sorted(p.deadline for p in tr._pending.values())
    assert deadlines == [pytest.approx(1.0), pytest.approx(7.0)]


def test_deadlines_pop_in_key_order_and_stay_compact():
    dl = Deadlines()
    dl.arm(TIMER, "b", 5.0)
    dl.arm(TIMER, "a", 5.0)
    dl.arm(TIMER, "c", 3.0)
    dl.arm(SEND, 7, 4.0)
    dl.arm(TIMER, "c", 6.0)  # later: the old entry goes stale
    assert dl.heap[0] == (4.0, SEND, 7)  # the top is always live
    dl.disarm(SEND, 7)
    assert dl.heap[0] == (5.0, TIMER, "a")
    # Re-arming one timer over and over leaves stale entries behind; the
    # heap is rebuilt before they outnumber the live ones by much.
    for i in range(1000):
        dl.arm(TIMER, "busy", 100.0 + i)
    assert len(dl.heap) <= max(64, 2 * len(dl.timers)) + 1
    # A due send is passed over (the driver services sends as one batch).
    dl.arm(SEND, 8, 5.0)
    popped = []
    while (entry := dl.pop_timer(6.0)) is not None:
        popped.append(entry[2])
    assert popped == ["a", "b", "c"]
    assert dl.heap[0] == (5.0, SEND, 8) and dl.sends == {8: (5.0, SEND, 8)}
    assert set(dl.timers) == {"busy"}


def test_tracker_resolution_feeds_forecast_history():
    pol = TimeoutPolicy.forecast(multiplier=4.0, default=50.0, floor=0.0)
    tr = ReliableSendTracker(pol, lambda: 0.5)
    tag = event_tag("svc/p", "REQ")
    for _ in range(30):
        eff = reliable_send()
        tr.track(eff, 100.0)
        tr.resolve(eff.message.req_id, 101.0)
    # Observed 1 s responses pull the 50 s default down to ~4 s.
    assert pol.timeout_for(tag) == pytest.approx(4.0, rel=0.2)


# -- driver integration -----------------------------------------------------

class OneShot(Component):
    """Sends one reliable request at start; records the give-up."""

    def __init__(self, dst):
        super().__init__("oneshot")
        self.dst = dst
        self.failures = []
        self.replies = []

    def on_start(self, now):
        return [Send(self.dst, Message(mtype="REQ", sender=self.contact),
                     retry=RetryPolicy(max_attempts=3, jitter=0.0),
                     timeout=2.0, label="req")]

    def on_message(self, message, now):
        self.replies.append((message.mtype, now))
        return []

    def on_send_failed(self, send, now):
        self.failures.append((send.label, now))
        return []


class Replier(Component):
    def __init__(self):
        super().__init__("replier")
        self.seen = 0

    def on_message(self, message, now):
        self.seen += 1
        return [Send(message.sender, message.reply("ACK", sender=self.contact))]


def build_world(n_hosts=2):
    env = Environment()
    streams = RngStreams(seed=7)
    net = Network(env, streams, jitter=0.0)
    hosts = []
    for i in range(n_hosts):
        h = Host(env, HostSpec(name=f"h{i}"), streams)
        net.add_host(h)
        hosts.append(h)
    return env, streams, net, hosts


def test_simdriver_gives_up_after_policy_exhausted():
    env, streams, net, hosts = build_world(1)
    comp = OneShot("nowhere/void")
    drv = SimDriver(env, net, hosts[0], "cli", comp, streams)
    drv.start()
    env.run(until=60)
    # 3 attempts at 2 s / 4 s / 8 s backoff, then exactly one give-up.
    assert comp.failures == [("req", pytest.approx(14.0))]
    assert drv.tracker.tracked == 1
    assert drv.tracker.retries == 2
    assert drv.tracker.give_ups == 1


def test_simdriver_reply_stops_retransmission():
    env, streams, net, hosts = build_world(2)
    server = Replier()
    SimDriver(env, net, hosts[1], "svc", server, streams).start()
    comp = OneShot("h1/svc")
    drv = SimDriver(env, net, hosts[0], "cli", comp, streams)
    drv.start()
    env.run(until=60)
    assert server.seen == 1  # no retransmissions reached the server
    assert [m for m, _ in comp.replies] == ["ACK"]
    assert comp.failures == []
    assert drv.tracker.resolved == 1


def test_simdriver_retransmits_through_loss_window():
    env, streams, net, hosts = build_world(2)
    server = Replier()
    SimDriver(env, net, hosts[1], "svc", server, streams).start()
    comp = OneShot("h1/svc")
    drv = SimDriver(env, net, hosts[0], "cli", comp, streams)
    drv.start()
    # The server's host is down for the first attempt only.
    hosts[1].go_down("test")

    def heal(env):
        yield env.timeout(1.0)
        hosts[1].go_up()
        SimDriver(env, net, hosts[1], "svc", server, streams).start()

    env.process(heal(env))
    env.run(until=60)
    assert comp.failures == []
    assert [m for m, _ in comp.replies] == ["ACK"]
    assert drv.tracker.retries >= 1

"""One scripted component pair, run under a two-host ``SimDriver`` world and
under two localhost ``NetDriver``s: both planes are the same interpreter
(``repro.core.driver``), so the hook sequence, the spans, the counters and
the reliable-send ladder must come out the same on each.

The script touches every driver mechanism once: ``on_start`` arms timers
and issues one fire-and-forget and two reliable sends (one answered, one
ignored until the ladder gives up), a timer is re-armed then cancelled, a
``BOOM`` message makes the peer's handler raise, sends go to a contact that
is not an address, a timer fires, and both components ``Stop``.
"""

import time
from collections import Counter

import pytest

from repro.core.component import (CancelTimer, Component, LogLine, Send,
                                  SetTimer, Stop)
from repro.core.linguafranca.messages import Message
from repro.core.netdriver import NetDriver
from repro.core.policy import RetryPolicy, TimeoutPolicy
from repro.core.simdriver import SimDriver
from repro.core.telemetry import Telemetry
from repro.simgrid.engine import Environment
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.network import Network
from repro.simgrid.rand import RngStreams

TIMEOUT = 0.05  # static reply time-out on both planes
LADDER = RetryPolicy(max_attempts=2, jitter=0.0)  # resend at 50 ms, give up at 150 ms
NOT_A_CONTACT = "nowhere"  # neither "host/port" nor "host:port"


class Recorder(Component):
    """Records every hook the driver calls, in order."""

    def __init__(self, name):
        super().__init__(name)
        self.calls = []


class Alpha(Recorder):
    def __init__(self, peer):
        super().__init__("alpha")
        self.peer = peer

    def _msg(self, mtype, pad=0):
        # Growing bodies keep simulated arrival order equal to send order
        # (transfer time is size-dependent); TCP is FIFO per peer anyway.
        return Message(mtype=mtype, sender=self.contact, body={"pad": "x" * pad})

    def on_start(self, now):
        self.calls.append(("on_start", None))
        return [
            SetTimer("tick", 0.4),
            SetTimer("spare", 5.0),
            Send(self.peer, self._msg("NOTE")),
            Send(self.peer, self._msg("ASK", 16), retry=LADDER, label="ask"),
            Send(self.peer, self._msg("SKIP", 32), retry=LADDER, label="skip"),
        ]

    def on_message(self, message, now):
        self.calls.append(("on_message", message.mtype))
        return [SetTimer("spare", 6.0)]  # re-armed; cancelled below

    def on_send_failed(self, send, now):
        self.calls.append(("on_send_failed", send.label))
        return [
            CancelTimer("spare"),
            LogLine("gave up on " + send.label),
            Send(self.peer, self._msg("BOOM")),
            Send(NOT_A_CONTACT, self._msg("LOST")),
            Send(NOT_A_CONTACT, self._msg("LOST"), retry=LADDER, label="lost"),
        ]

    def on_timer(self, key, now):
        self.calls.append(("on_timer", key))
        return [Send(self.peer, self._msg("BYE")), Stop("done")]


class Beta(Recorder):
    def __init__(self):
        super().__init__("beta")

    def on_start(self, now):
        self.calls.append(("on_start", None))
        return []

    def on_message(self, message, now):
        self.calls.append(("on_message", message.mtype))
        if message.mtype == "ASK":
            return [Send(message.sender,
                         message.reply("ANSWER", sender=self.contact))]
        if message.mtype == "BOOM":
            raise ValueError("scripted handler failure")
        if message.mtype == "BYE":
            return [Stop("bye")]
        return []  # NOTE, and SKIP (never answered)


def run_sim(make_alpha, beta, telemetry, log):
    env = Environment()
    streams = RngStreams(seed=11)
    net = Network(env, streams, jitter=0.0)
    hosts = [Host(env, HostSpec(name=f"h{i}"), streams) for i in range(2)]
    for host in hosts:
        net.add_host(host)
    kw = dict(log_sink=log, telemetry=telemetry,
              timeout_policy=TimeoutPolicy.static(TIMEOUT))
    b = SimDriver(env, net, hosts[1], "beta", beta, streams, **kw)
    a = SimDriver(env, net, hosts[0], "alpha",
                  make_alpha(b.endpoint.contact), streams, **kw)
    b.start()
    a.start()
    env.run(until=30)
    return a, b


def run_live(make_alpha, beta, telemetry, log):
    kw = dict(log_sink=log, telemetry=telemetry, seed=11,
              timeout_policy=TimeoutPolicy.static(TIMEOUT))
    b = NetDriver(beta, **kw)
    a = NetDriver(make_alpha(b.contact), **kw)
    # One thread pumps both reactors, so the shared tracer's ambient span
    # is never raced.
    deadline = time.monotonic() + 2.5
    live = [b, a]
    try:
        b.start()
        a.start()
        while live and time.monotonic() < deadline:
            for d in live:
                d.step(0.005)
            for d in [d for d in live if d.stop_reason is not None]:
                live.remove(d)
                d.close()  # flushes what its last hook sent
    finally:
        for d in live:
            d.close()
    return a, b


PLANES = {"sim": run_sim, "live": run_live}


def observe(run):
    """Everything the two planes must agree on, address-free."""
    telemetry = Telemetry(trace=True)
    log = []
    beta = Beta()
    a, b = run(Alpha, beta, telemetry,
               lambda t, comp, level, text: log.append((comp, level, text)))
    alpha = a.component
    by_id = telemetry.tracer.by_span_id()
    spans = Counter(
        (s.name, by_id[s.parent_id].name if s.parent_id in by_id else None,
         s.outcome)
        for s in telemetry.tracer.spans)
    tracker = a.tracker
    return {
        "alpha.calls": alpha.calls,
        "beta.calls": beta.calls,
        "stop": (a.stop_reason, b.stop_reason),
        "spans": spans,
        "msg": telemetry.metrics.counters_matching("msg."),
        "reliable": telemetry.metrics.counters_matching("reliable."),
        "handler_errors": (a.handler_errors, b.handler_errors),
        "send_errors": (a.send_errors, b.send_errors),
        "tracker": (tracker.tracked, tracker.retries, tracker.resolved,
                    tracker.give_ups, len(tracker)),
        "beta.tracker": b.tracker,
        "log": log,
    }


@pytest.fixture(scope="module")
def seen():
    return {plane: observe(run) for plane, run in PLANES.items()}


def test_the_script_ran_as_written_on_the_simulated_plane(seen):
    sim = seen["sim"]
    assert sim["alpha.calls"] == [
        ("on_start", None), ("on_message", "ANSWER"),
        ("on_send_failed", "skip"), ("on_timer", "tick")]
    assert sim["beta.calls"] == [
        ("on_start", None), ("on_message", "NOTE"), ("on_message", "ASK"),
        ("on_message", "SKIP"), ("on_message", "SKIP"),
        ("on_message", "BOOM"), ("on_message", "BYE")]
    assert sim["stop"] == ("done", "bye")
    # ASK resolved; SKIP resent once then given up; neither LOST tracked.
    assert sim["tracker"] == (2, 1, 1, 1, 0)
    assert sim["handler_errors"] == (0, 1)
    assert sim["send_errors"] == (2, 0)
    assert sim["spans"] == Counter({
        ("start alpha", None, "ok"): 1,
        ("start beta", None, "ok"): 1,
        ("send NOTE", "start alpha", "ok"): 1,
        ("call ASK", "start alpha", "ok"): 1,
        ("call SKIP", "start alpha", "gave-up"): 1,
        ("recv NOTE", "send NOTE", "ok"): 1,
        ("recv ASK", "call ASK", "ok"): 1,
        ("send ANSWER", "recv ASK", "ok"): 1,
        ("recv ANSWER", "send ANSWER", "ok"): 1,
        ("recv SKIP", "call SKIP", "ok"): 2,
        ("retransmit SKIP", "call SKIP", "retransmit"): 1,
        ("send-failed skip", "call SKIP", "gave-up"): 1,
        ("send BOOM", "send-failed skip", "ok"): 1,
        ("recv BOOM", "send BOOM", "error"): 1,
        ("timer tick", "start alpha", "ok"): 1,
        ("send BYE", "timer tick", "ok"): 1,
        ("recv BYE", "send BYE", "ok"): 1,
    })


@pytest.mark.parametrize("what", [
    "alpha.calls", "beta.calls", "stop", "spans", "msg", "reliable",
    "handler_errors", "send_errors", "tracker", "beta.tracker", "log"])
def test_planes_agree(seen, what):
    assert seen["live"][what] == seen["sim"][what]


def test_a_raising_handler_is_counted_logged_and_the_loop_goes_on(seen):
    for plane in PLANES:
        got = seen[plane]
        assert got["handler_errors"] == (0, 1)
        (line,) = [text for comp, level, text in got["log"]
                   if comp == "beta" and level == "error"]
        assert line.startswith("dropped BOOM: ValueError(")
        assert got["beta.calls"][-1] == ("on_message", "BYE")  # went on


class LostCall(Recorder):
    """One reliable send to a made-up contact; goodbye once the ladder
    would long have ended."""

    def __init__(self, peer):
        super().__init__("lostcall")
        self.peer = peer

    def on_start(self, now):
        return [Send(NOT_A_CONTACT, Message(mtype="REQ", sender=self.contact),
                     retry=RetryPolicy(max_attempts=3, jitter=0.0), label="req"),
                SetTimer("end", 0.5)]

    def on_send_failed(self, send, now):
        self.calls.append(("on_send_failed", send.label))
        return []

    def on_timer(self, key, now):
        return [Send(self.peer, Message(mtype="BYE", sender=self.contact)),
                Stop("end")]


@pytest.mark.parametrize("plane", PLANES)
def test_reliable_send_to_a_malformed_contact_is_one_metered_drop(plane):
    """A made-up contact is a lost message on both planes: metered once,
    never counted as sent, never tracked, retransmitted or reported through
    ``on_send_failed`` — the 50 ms ladder would have ended by 350 ms."""
    telemetry = Telemetry()
    beta = Beta()
    a, _b = PLANES[plane](LostCall, beta, telemetry, None)
    assert a.stop_reason == "end"
    assert a.send_errors == 1
    assert a.tracker is None
    assert a.component.calls == []
    assert list(telemetry.metrics.counters_matching("msg.sent")) == [
        "msg.sent{mtype=BYE}"]
    assert telemetry.metrics.counters_matching("reliable.") == {}

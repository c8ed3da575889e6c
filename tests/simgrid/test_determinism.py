"""Determinism guarantees of the DES engine.

The reproduction's headline claim — same seed, same Fig. 2 curve — rests
on the engine resolving every scheduling ambiguity the same way on every
run: simultaneous timeouts fire in creation order, interrupts preempt
normal entries at the same timestamp, and resuming on an already-processed
event continues immediately. These tests pin those rules down so the
hot-path work in the engine cannot silently reorder anything.
"""

import hashlib
from unittest import mock

import pytest

from repro.core.component import Component, SetTimer
from repro.core.simdriver import SimDriver
from repro.experiments.sc98 import SC98Config, build_sc98
from repro.simgrid.engine import Environment, Event, SimulationError
from repro.simgrid.host import Host, HostDown, HostSpec
from repro.simgrid.network import Network
from repro.simgrid.rand import RngStreams


def _run_mini_sc98():
    cfg = SC98Config(scale=0.02, seed=1998, duration=1800.0)
    world = build_sc98(cfg)
    res = world.run()
    digest = hashlib.sha256()
    digest.update(res.series.times.tobytes())
    digest.update(res.series.total_rate.tobytes())
    for k in sorted(res.series.rate_by_infra):
        digest.update(res.series.rate_by_infra[k].tobytes())
    for k in sorted(res.series.hosts_by_infra):
        digest.update(res.series.hosts_by_infra[k].tobytes())
    return digest.hexdigest(), world.env.now, world.env._seq


def test_same_seed_sc98_run_is_bit_identical():
    first = _run_mini_sc98()
    second = _run_mini_sc98()
    assert first == second


def test_simultaneous_timeouts_fire_in_creation_order():
    env = Environment()
    order = []

    def waiter(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    # All four deadlines coincide at t=6; creation order must win.
    env.process(waiter(env, "a", 6.0))
    env.process(waiter(env, "b", 6.0))
    env.process(waiter(env, "c", 6.0))
    env.process(waiter(env, "d", 6.0))
    env.run()
    assert order == ["a", "b", "c", "d"]


def test_staggered_creation_same_deadline_is_fifo():
    env = Environment()
    order = []

    def spawn_later(env):
        # Created later but waiting on the same absolute deadline (t=10).
        yield env.timeout(4.0)
        yield env.timeout(6.0)
        order.append("late")

    def early(env):
        yield env.timeout(10.0)
        order.append("early")

    env.process(early(env))
    env.process(spawn_later(env))
    env.run()
    # The t=10 timeout scheduled at t=0 precedes the one scheduled at t=4.
    assert order == ["early", "late"]


class _Sleeper(Component):
    """Arms one 5 s timer at start and logs what ends its wait."""

    def __init__(self, log):
        super().__init__("sleeper")
        self.log = log

    def on_start(self, now):
        return [SetTimer("t", 5.0)]

    def on_timer(self, key, now):
        self.log.append("timeout")
        return []

    def on_stop(self, now, reason):
        self.log.append(("interrupted", reason))


def _sleeper_driver(env, log):
    streams = RngStreams(seed=1)
    net = Network(env, streams)
    host = Host(env, HostSpec(name="h"), streams)
    net.add_host(host)
    return SimDriver(env, net, host, "p", _Sleeper(log), streams), host


class _Kill:
    def __init__(self, driver, host):
        self.driver, self.host = driver, host

    def fire(self, _tag):
        self.driver.process.interrupt(HostDown(self.host, "now"))


def test_interrupt_preempts_same_time_timeout():
    env = Environment()
    log = []
    victim, host = _sleeper_driver(env, log)
    # Queued first, so the kill fires before the victim's timer at the
    # shared t=5 deadline.
    env.call(_Kill(victim, host).fire, 5.0)
    victim.start()
    env.run()
    # Both the victim's timer and the interrupt land at t=5; the urgent
    # interrupt must be delivered, not the timer.
    assert log == [("interrupted", "host_down:now")]
    assert env.now == 5.0


def test_yielding_processed_event_resumes_immediately():
    env = Environment()
    seen = []

    def producer(env):
        yield env.timeout(1.0)

    def consumer(env, ev):
        yield env.timeout(3.0)  # ev is long processed by now
        value = yield ev
        seen.append((env.now, value))

    ev = Event(env)

    def trigger(env):
        yield env.timeout(1.0)
        ev.succeed("ready")

    env.process(producer(env))
    env.process(trigger(env))
    env.process(consumer(env, ev))
    env.run()
    # No extra delay: the consumer resumes at t=3 with the stored value.
    assert seen == [(3.0, "ready")]


def test_run_until_processed_event_returns_its_value():
    env = Environment()
    t = env.timeout(1.0, value=42)
    env.run(until=5.0)
    assert t.processed
    assert env.run(until=t) == 42


def test_interrupt_terminated_process_raises():
    env = Environment()
    driver, host = _sleeper_driver(env, [])
    driver.start()
    env.run()  # the timer fires; the sleeper stays idle, alive
    host.go_down()
    env.run()
    with pytest.raises(SimulationError):
        driver.process.interrupt()


def test_ci_mini_sc98_is_pinned_byte_for_byte():
    """The reduced SC98 world's Fig. 2 series, to the bit: a forecast,
    a delivery order or a byte count that moves changes this digest.
    The last figure counts the queue's sequence numbers."""
    assert _run_mini_sc98() == (
        "a52e637d26e2626744931a1f629d0178be2aaa5d9985101043cbcde0191112d6",
        1800.0, 7928)


def test_mini_sc98_makes_no_more_real_json_encodes():
    """A message renders its body when it is first sized or framed under
    a header, and never again under that header: the reduced world's
    renders, counted where a message renders (``messages._render``),
    equal its distinct ``(message, header)`` pairs. Both read 2,146
    since the content-keyed body cache went; the cache read 1,347
    renders (bound 1,363) by sharing one text between equal bodies, but
    built a key for every sizing and saved no time (DESIGN §7)."""
    from repro.core.linguafranca import messages

    parts, pairs, held = messages.Message._parts, set(), []

    def rendered_parts(message):
        held.append(message)  # held, so no id is reused during the run
        pairs.add((id(message), message.sender, message.req_id,
                   message.reply_to, message.trace))
        return parts(message)

    with mock.patch.object(messages.Message, "_parts", rendered_parts), \
            mock.patch.object(messages, "_render",
                              wraps=messages._render) as renders:
        _run_mini_sc98()
    assert renders.call_count == len(pairs) == 2146

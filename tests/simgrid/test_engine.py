"""Unit tests for the discrete-event simulation engine."""

from functools import partial

import pytest

from repro.core.component import Component
from repro.core.simdriver import SimDriver
from repro.simgrid.engine import Environment, Event, SimulationError
from repro.simgrid.host import Host, HostDown, HostSpec
from repro.simgrid.network import Network
from repro.simgrid.rand import RngStreams


class _Idle(Component):
    def __init__(self):
        super().__init__("idle")
        self.stops = []

    def on_stop(self, now, reason):
        self.stops.append((now, reason))


def _started_driver(env):
    """An idle component on a one-host world; returns (driver, host)."""
    streams = RngStreams(seed=1)
    net = Network(env, streams)
    host = Host(env, HostSpec(name="h"), streams)
    net.add_host(host)
    driver = SimDriver(env, net, host, "p", _Idle(), streams)
    driver.start()
    return driver, host


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 5
    assert env.now == 5


def test_zero_delay_timeout_runs_same_time():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(0)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [0.0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_fifo_order_at_same_time():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1)
        order.append(name)

    for name in "abc":
        env.process(proc(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_propagates():
    env = Environment()

    def inner(env):
        yield env.timeout(3)
        return 42

    def outer(env):
        value = yield env.process(inner(env))
        return value + 1

    p = env.process(outer(env))
    env.run()
    assert p.value == 43
    assert env.now == 3


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def inner(env):
        yield env.timeout(1)
        raise ValueError("boom")

    def outer(env):
        try:
            yield env.process(inner(env))
        except ValueError as exc:
            return f"caught {exc}"

    p = env.process(outer(env))
    env.run()
    assert p.value == "caught boom"


def test_unhandled_process_exception_raises_from_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    driver, host = _started_driver(env)
    env.run(until=7)
    driver.process.interrupt(HostDown(host, "reclaimed"))
    env.run()
    assert driver.component.stops == [(7, "host_down:reclaimed")]
    assert driver.process.value == "host_down:reclaimed"


def test_interrupt_terminated_process_is_error():
    env = Environment()
    driver, host = _started_driver(env)
    host.go_down()
    env.run()
    with pytest.raises(SimulationError):
        driver.process.interrupt()


def test_call_entries_share_timeouts_fifo_order():
    env = Environment()
    order = []

    class Probe:
        def __init__(self, name):
            self.name = name

        def fire(self, tag):
            order.append((env.now, self.name))

    env.call(Probe("a").fire, 1.0)
    t = env.timeout(1.0)
    t.callbacks.append(lambda _ev: order.append((env.now, "timeout")))
    env.call(partial(Probe.fire, Probe("b")), 1.0)
    env.run()
    assert order == [(1.0, "a"), (1.0, "timeout"), (1.0, "b")]


def test_urgent_call_runs_ahead_of_same_instant_entries():
    env = Environment()
    order = []

    class Probe:
        def fire(self, name, tag):
            order.append((name, tag < 0))

    probe = Probe()
    env.call(partial(probe.fire, "normal"))
    env.call(partial(probe.fire, "urgent"), urgent=True)
    env.run()
    assert order == [("urgent", True), ("normal", False)]


def test_start_takes_its_wait_number_at_the_urgent_entry():
    """A loop begun with start() queues its first wait from an urgent
    entry: an entry queued after start() for the same time, but before
    that urgent entry ran, still fires first."""
    env = Environment()
    order = []

    class Probe:
        def fire(self, name, tag):
            order.append(name)

    probe = Probe()
    env.start(partial(probe.fire, "loop"), 5.0)
    env.call(partial(probe.fire, "entry"), 5.0)
    env.run()
    assert order == ["entry", "loop"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(10)

    env.process(ticker(env))
    env.run(until=35)
    assert env.now == 35


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return "done"

    p = env.process(proc(env))
    result = env.run(until=p)
    assert result == "done"
    assert env.now == 3


def test_run_until_past_time_is_error():
    env = Environment(initial_time=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_event_succeed_only_once():
    env = Environment()
    ev = Event(env)
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_is_error():
    env = Environment()
    ev = Event(env)
    with pytest.raises(SimulationError):
        _ = ev.value


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    p = env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()
    assert not p.ok


def test_waiting_on_already_processed_event():
    env = Environment()

    def proc(env):
        t = env.timeout(1, value="x")
        yield env.timeout(5)
        # t processed long ago; yielding it must resume immediately.
        v = yield t
        return (v, env.now)

    p = env.process(proc(env))
    env.run()
    assert p.value == ("x", 5)


def test_initial_time():
    env = Environment(initial_time=1000.0)
    assert env.now == 1000.0

    def proc(env):
        yield env.timeout(5)

    env.process(proc(env))
    env.run()
    assert env.now == 1005.0


def test_peek_and_step():
    env = Environment()
    env.timeout(4)
    assert env.peek() == 4
    env.step()
    assert env.now == 4
    assert env.peek() == float("inf")
    with pytest.raises(SimulationError):
        env.step()


def test_deterministic_replay():
    """Two identical simulations produce identical event traces."""

    def build(env, trace):
        def worker(env, name, delays):
            for d in delays:
                yield env.timeout(d)
                trace.append((env.now, name))

        env.process(worker(env, "w1", [1, 2, 3]))
        env.process(worker(env, "w2", [2, 2, 2]))
        env.process(worker(env, "w3", [3, 1, 2]))

    t1, t2 = [], []
    for trace in (t1, t2):
        env = Environment()
        build(env, trace)
        env.run()
    assert t1 == t2


def test_process_is_alive():
    env = Environment()

    def proc(env):
        yield env.timeout(10)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive

"""Edge-case and failure-propagation tests for the simulation engine."""

import pytest

from repro.simgrid.engine import (
    Environment,
    Event,
    PRIORITY_URGENT,
    SimulationError,
)


def test_unwaited_failed_event_raises_from_run():
    env = Environment()
    ev = Event(env)
    ev.fail(KeyError("unobserved"))
    with pytest.raises(KeyError):
        env.run()


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(SimulationError):
        Event(env).fail("not an exception")  # type: ignore[arg-type]


def test_urgent_priority_processed_first():
    env = Environment()
    order = []

    normal = Event(env)
    urgent = Event(env)
    normal.callbacks.append(lambda e: order.append("normal"))
    urgent.callbacks.append(lambda e: order.append("urgent"))
    normal.succeed()
    urgent.succeed(priority=PRIORITY_URGENT)
    env.run()
    assert order == ["urgent", "normal"]


def test_event_trigger_chaining():
    env = Environment()
    src = Event(env)
    dst = Event(env)
    src.succeed("payload")
    env.run()
    dst.trigger(src)
    assert dst.triggered
    env.run()
    assert dst.value == "payload"


def test_nested_process_chains():
    env = Environment()

    def leaf(env, n):
        yield env.timeout(n)
        return n

    def mid(env):
        a = yield env.process(leaf(env, 2))
        b = yield env.process(leaf(env, 3))
        return a + b

    def top(env):
        total = yield env.process(mid(env))
        return total * 10

    p = env.process(top(env))
    env.run()
    assert p.value == 50
    assert env.now == 5


def test_run_until_triggered_event_already_processed():
    env = Environment()
    t = env.timeout(1, value="x")
    env.run(until=10)
    assert env.run(until=t) == "x"


def test_many_simultaneous_events_deterministic():
    env = Environment()
    order = []
    for i in range(100):
        ev = env.timeout(5, value=i)
        ev.callbacks.append(lambda e: order.append(e.value))
    env.run()
    assert order == list(range(100))

"""Unit tests for Store, Gate and get_with_timeout."""

import pytest

from repro.simgrid.engine import Environment, SimulationError
from repro.simgrid.resources import Gate, Store, get_with_timeout


def test_store_put_then_get():
    env = Environment()
    store = Store(env)

    def producer(env):
        yield store.put("hello")

    def consumer(env):
        item = yield store.get()
        return item

    env.process(producer(env))
    c = env.process(consumer(env))
    env.run()
    assert c.value == "hello"


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def consumer(env):
        item = yield store.get()
        return (item, env.now)

    def producer(env):
        yield env.timeout(9)
        yield store.put("late")

    c = env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert c.value == ("late", 9)


def test_store_fifo_item_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(5):
            yield store.put(i)

    def consumer(env):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_capacity_blocks_putter():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer(env):
        yield store.put("a")
        times.append(env.now)
        yield store.put("b")  # blocks until a consumed
        times.append(env.now)

    def consumer(env):
        yield env.timeout(5)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert times == [0, 5]


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Store(env, capacity=0)


def test_get_with_timeout_receives_in_time():
    env = Environment()
    store = Store(env)

    def producer(env):
        yield env.timeout(2)
        yield store.put("msg")

    def consumer(env):
        item = yield from get_with_timeout(env, store, 5)
        return (item, env.now)

    env.process(producer(env))
    c = env.process(consumer(env))
    env.run()
    assert c.value == ("msg", 2)


def test_get_with_timeout_expires():
    env = Environment()
    store = Store(env)

    def consumer(env):
        item = yield from get_with_timeout(env, store, 5)
        return (item, env.now)

    c = env.process(consumer(env))
    env.run()
    assert c.value == (None, 5)
    # The cancelled getter must not steal a later item.
    assert len(store._getters) == 0


def test_get_with_timeout_cancelled_getter_does_not_consume():
    env = Environment()
    store = Store(env)

    def impatient(env):
        item = yield from get_with_timeout(env, store, 1)
        return item

    def patient(env):
        item = yield from get_with_timeout(env, store, 100)
        return item

    def producer(env):
        yield env.timeout(10)
        yield store.put("only")

    a = env.process(impatient(env))
    b = env.process(patient(env))
    env.process(producer(env))
    env.run()
    assert a.value is None
    assert b.value == "only"


def test_get_with_timeout_none_blocks_forever_until_item():
    env = Environment()
    store = Store(env)

    def producer(env):
        yield env.timeout(50)
        yield store.put("eventually")

    def consumer(env):
        item = yield from get_with_timeout(env, store, None)
        return (item, env.now)

    env.process(producer(env))
    c = env.process(consumer(env))
    env.run()
    assert c.value == ("eventually", 50)


def test_gate_broadcast():
    env = Environment()
    gate = Gate(env)
    woken = []

    def waiter(env, name):
        value = yield gate.wait()
        woken.append((name, value, env.now))

    def firer(env):
        yield env.timeout(3)
        n = gate.fire("go")
        assert n == 2

    env.process(waiter(env, "a"))
    env.process(waiter(env, "b"))
    env.process(firer(env))
    env.run()
    assert woken == [("a", "go", 3), ("b", "go", 3)]


def test_gate_fire_with_no_waiters():
    env = Environment()
    gate = Gate(env)
    assert gate.fire() == 0

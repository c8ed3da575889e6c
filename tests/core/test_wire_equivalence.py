"""A simulated delivery carries the sender's ``Message`` and its wire
size, not its bytes, and the receiver uses the object without parsing
(DESIGN §7). That is only sound while the object *is* what its bytes
would say — the frame it encoded to when it was sent — at the moment it
arrives, for every delivery. This sweep captures that frame at send time
and checks exactly that in three whole worlds, along with the size.

It fails on: a sender mutating a message after sending it; a handler
mutating a body that a duplicate or a retransmit delivers again; a body
JSON would have normalised on the way (tuple -> list, int key -> str) —
the small worlds at the bottom show each being caught. Every delivered
message is checked once more when the world has finished.
"""

import dataclasses

import pytest

from repro.core.component import Component, Send, SetTimer
from repro.core.linguafranca.messages import Message
from repro.core.simdriver import SimDriver
from repro.experiments.bigpool import build_pool, churn_plan, inject_write
from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.experiments.sc98 import SC98Config, build_sc98
from repro.simgrid.engine import Environment
from repro.simgrid.faults import FaultPlan
from repro.simgrid.host import Host, HostSpec
from repro.simgrid import network
from repro.simgrid.network import Network
from repro.simgrid.rand import RngStreams

_FIELDS = [field.name for field in dataclasses.fields(Message)]


def difference(a, b, path="message"):
    """Where two values differ (types included, recursively), or None."""
    if type(a) is not type(b):
        return f"{path}: {type(a).__name__} {a!r} vs {type(b).__name__} {b!r}"
    if isinstance(a, dict):
        if list(a) != list(b):
            return f"{path}: keys {list(a)!r} vs {list(b)!r}"
        pairs = ((f"{path}[{k!r}]", a[k], b[k]) for k in a)
    elif isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: {len(a)} items vs {len(b)}"
        pairs = ((f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b)))
    else:
        return None if a == b else f"{path}: {a!r} vs {b!r}"
    for sub, x, y in pairs:
        found = difference(x, y, sub)
        if found:
            return found
    return None


def message_difference(carried: Message, parsed: Message):
    for name in _FIELDS:
        found = difference(getattr(carried, name), getattr(parsed, name),
                           f"message.{name}")
        if found:
            return found
    return None


class Sweep:
    """Tally of checked arrivals, and the messages to check once more."""

    def __init__(self):
        self.typed = self.raw = 0
        self.delivered = {}  # (id(record), bytes) -> record, kept alive

    def recheck(self):
        """The world has finished: nobody, sender or receiver, may have
        changed a delivered message through any alias."""
        for (_, payload), record in self.delivered.items():
            found = message_difference(record, Message.decode(payload))
            assert found is None, (
                f"{record.mtype} from {record.sender} changed after it was "
                f"delivered: {found}")


class SentDelivery(network.Delivery):
    """A delivery that also holds its record's frame, encoded when the
    delivery was made: at send time, duplicates included."""

    __slots__ = ("frame",)

    def __init__(self, *fields):
        super().__init__(*fields)
        self.frame = None if self.record is None else self.record.encode()


@pytest.fixture
def arrivals(monkeypatch):
    """Check every arrival of every Network built inside the test."""
    sweep = Sweep()
    on_arrival = Network._on_arrival

    def checked(self, delivery):
        record = delivery.record
        if record is None:
            sweep.raw += 1
        else:
            sweep.typed += 1
            frame = delivery.frame
            assert delivery.size == len(frame), (
                f"{record.mtype}: sized {delivery.size}, framed {len(frame)}")
            found = message_difference(record, Message.decode(frame))
            assert found is None, (
                f"{delivery.src} -> {delivery.dst} at t={self.env.now:.3f} "
                f"({record.mtype}): carried object is not what its bytes "
                f"say: {found}")
            sweep.delivered[id(record), frame] = record
        on_arrival(self, delivery)

    # Both before any Network is built: it registers the arrival class and
    # its handler at construction.
    monkeypatch.setattr(network, "Delivery", SentDelivery)
    monkeypatch.setattr(Network, "_on_arrival", checked)
    return sweep


def test_sc98_world_delivers_what_it_encoded(arrivals):
    world = build_sc98(SC98Config(scale=0.04, duration=1.5 * 3600.0, seed=3))
    world.run()
    assert world.network.stats.delivered > 5_000
    assert arrivals.typed >= world.network.stats.delivered
    assert arrivals.raw == 0
    arrivals.recheck()


def test_churned_pool_delivers_what_it_encoded(arrivals):
    pool = build_pool(n_hosts=64, n_sites=4, n_records=8, seed=5)
    churn_plan(pool.config).install(pool.env, pool.network)
    pool.run(until=30.0)
    inject_write(pool)
    pool.run(until=320.0)  # crashes, partition, heal and reboots all land
    stats = pool.network.stats
    assert stats.dropped_partition > 0 and stats.dropped_down > 0
    assert arrivals.typed > 5_000 and arrivals.raw == 0
    arrivals.recheck()


def test_duplicated_and_reordered_traffic_delivers_what_it_encoded(arrivals):
    """The ``infra-loss`` profile's chaos window duplicates and delays
    (reorders) live traffic: the same object arrives twice."""
    report = run_chaos("infra-loss", ChaosConfig(duration=900.0))
    assert report.network["duplicated_fault"] > 0
    assert report.network["delayed_fault"] > 0
    assert arrivals.typed > 1_000 and arrivals.raw == 0
    arrivals.recheck()


# -- the sweep catches what it claims to -----------------------------------

class Talker(Component):
    """Sends ``message`` to ``peer`` at t=1; ``then`` (if given) runs on
    it 1 ms later — before anything can have arrived."""

    def __init__(self, peer, message, then=None):
        super().__init__("talker")
        self.peer, self.message, self.then = peer, message, then

    def on_start(self, now):
        return [SetTimer("send", 1.0)]

    def on_timer(self, key, now):
        if key == "send":
            return [Send(self.peer, self.message), SetTimer("then", 0.001)]
        if self.then is not None:
            self.then(self.message)
        return []


class Listener(Component):
    def __init__(self, on_message=None):
        super().__init__("listener")
        self.handle = on_message or (lambda message: None)

    def on_message(self, message, now):
        self.handle(message)
        return []


def run_pair(talker_args, listener=None, plan=None):
    env = Environment()
    streams = RngStreams(seed=1)
    net = Network(env, streams, jitter=0.0)
    hosts = [Host(env, HostSpec(name=name), streams) for name in ("a", "b")]
    for host in hosts:
        net.add_host(host)
    if plan is not None:
        plan.install(env, net)
    SimDriver(env, net, hosts[1], "p", listener or Listener(), streams).start()
    SimDriver(env, net, hosts[0], "p", Talker("b/p", *talker_args),
              streams).start()
    env.run(until=20)
    return net


def test_sweep_passes_an_honest_pair(arrivals):
    net = run_pair([Message("HI", "", {"n": [1, 2], "k": {"1": None}})])
    assert net.stats.delivered == 1 and arrivals.typed == 1
    arrivals.recheck()


def test_sweep_catches_a_sender_mutating_after_send(arrivals):
    message = Message("HI", "", {"n": 1})
    with pytest.raises(AssertionError, match="not what its bytes say.*body"):
        run_pair([message, lambda sent: sent.body.update(n=2)])


def test_sweep_catches_a_handler_mutating_what_a_duplicate_delivers_again(
        arrivals):
    plan = FaultPlan().chaos(at=0.0, duration=10.0, duplicate=1.0)
    with pytest.raises(AssertionError, match="not what its bytes say.*body"):
        run_pair([Message("HI", "", {"items": [1, 2]})],
                 Listener(lambda message: message.body["items"].pop()), plan)


def test_sweep_catches_a_receiver_mutating_what_it_keeps(arrivals):
    kept = []
    run_pair([Message("HI", "", {"items": [1, 2]})],
             Listener(lambda message: kept.append(message.body["items"])))
    arrivals.recheck()
    kept[0].append(3)  # the receiver's state is the sender's list
    with pytest.raises(AssertionError, match="changed after it was delivered"):
        arrivals.recheck()


@pytest.mark.parametrize("body", [{"pair": (1, 2)}, {"by_id": {7: "x"}}])
def test_sweep_catches_a_body_json_would_have_normalised(arrivals, body):
    with pytest.raises(AssertionError, match="not what its bytes say.*body"):
        run_pair([Message("HI", "", body)])

"""Tests for the sans-IO component model and its simulation driver."""

import pytest

from repro.core.component import (
    CancelTimer,
    Component,
    LogLine,
    NullRuntime,
    Send,
    SetTimer,
    Stop,
)
from repro.core.linguafranca.messages import Message
from repro.core.policy import RetryPolicy
from repro.core.simdriver import SimDriver, SimWorld
from repro.core.telemetry import Telemetry
from repro.simgrid.engine import Environment, SimulationError
from repro.simgrid.faults import FaultPlan
from repro.simgrid.host import Host, HostDown, HostSpec
from repro.simgrid.load import LoadModel
from repro.simgrid.network import Address, Network
from repro.simgrid.profile import EngineProfiler
from repro.simgrid.rand import RngStreams


class EchoServer(Component):
    """Replies PONG to PING; stops on QUIT."""

    def __init__(self):
        super().__init__("echo")
        self.seen = []

    def on_message(self, message, now):
        self.seen.append((message.mtype, now))
        if message.mtype == "PING":
            return [Send(message.sender, message.reply("PONG", sender=self.contact))]
        if message.mtype == "QUIT":
            return [Stop("asked")]
        return []


class Ticker(Component):
    """Fires a periodic timer and records ticks."""

    def __init__(self, period=5.0, limit=3):
        super().__init__("ticker")
        self.period = period
        self.limit = limit
        self.ticks = []
        self.stopped = None

    def on_start(self, now):
        return [SetTimer("tick", self.period), LogLine("started")]

    def on_timer(self, key, now):
        assert key == "tick"
        self.ticks.append(now)
        if len(self.ticks) >= self.limit:
            return [Stop("done")]
        return [SetTimer("tick", self.period)]

    def on_stop(self, now, reason):
        self.stopped = (now, reason)


def build(n_hosts=2):
    env = Environment()
    streams = RngStreams(seed=2)
    net = Network(env, streams, jitter=0.0)
    hosts = []
    for i in range(n_hosts):
        h = Host(env, HostSpec(name=f"h{i}"), streams)
        net.add_host(h)
        hosts.append(h)
    return env, streams, net, hosts


def test_ticker_timers_and_stop():
    env, streams, net, hosts = build()
    logs = []
    ticker = Ticker(period=5, limit=3)
    drv = SimDriver(env, net, hosts[0], "tick", ticker, streams,
                    log_sink=lambda *a: logs.append(a))
    drv.start()
    env.run(until=100)
    assert ticker.ticks == [5, 10, 15]
    assert ticker.stopped == (15, "done")
    assert logs == [(0, "ticker", "info", "started")]
    # Endpoint released on stop.
    assert not net.is_bound(drv.address)


def test_echo_request_response_between_drivers():
    env, streams, net, hosts = build()
    server = EchoServer()
    SimDriver(env, net, hosts[1], "svc", server, streams).start()

    from repro.core.linguafranca.endpoint import SimEndpoint

    client = SimEndpoint(env, net, Address("h0", "cli"))

    def client_proc(env):
        reply, rtt = yield from client.request(
            "h1/svc", Message(mtype="PING", sender=""), timeout=10
        )
        client.send("h1/svc", Message(mtype="QUIT", sender=""))
        return reply.mtype, rtt

    cp = env.process(client_proc(env))
    env.run(until=60)
    assert cp.value[0] == "PONG"
    assert server.seen[0][0] == "PING"
    assert server.seen[1][0] == "QUIT"


def test_host_death_stops_component_with_reason():
    env, streams, net, hosts = build()
    ticker = Ticker(period=5, limit=1000)
    drv = SimDriver(env, net, hosts[0], "tick", ticker, streams)
    drv.start()

    def killer(env):
        yield env.timeout(12)
        hosts[0].go_down("reclaimed")

    env.process(killer(env))
    env.run(until=50)
    assert ticker.stopped is not None
    t, reason = ticker.stopped
    assert t == 12
    assert reason == "host_down:reclaimed"
    assert not net.is_bound(drv.address)
    assert not drv.running


def test_cancel_timer():
    class CancelComp(Component):
        def __init__(self):
            super().__init__("c")
            self.fired = []

        def on_start(self, now):
            return [SetTimer("a", 5), SetTimer("b", 10), CancelTimer("a")]

        def on_timer(self, key, now):
            self.fired.append((key, now))
            return [Stop()]

    env, streams, net, hosts = build()
    comp = CancelComp()
    SimDriver(env, net, hosts[0], "p", comp, streams).start()
    env.run(until=60)
    assert comp.fired == [("b", 10)]


def test_set_timer_replaces_existing():
    class RearmComp(Component):
        def __init__(self):
            super().__init__("r")
            self.fired = []

        def on_start(self, now):
            # Arm at 5 then immediately rearm to 20: only 20 should fire.
            return [SetTimer("t", 5), SetTimer("t", 20)]

        def on_timer(self, key, now):
            self.fired.append(now)
            return [Stop()]

    env, streams, net, hosts = build()
    comp = RearmComp()
    SimDriver(env, net, hosts[0], "p", comp, streams).start()
    env.run(until=60)
    assert comp.fired == [20]


def test_component_contact_requires_binding():
    c = Component("x")
    with pytest.raises(RuntimeError):
        _ = c.contact
    c.bind_runtime(NullRuntime(contact="h/p"))
    assert c.contact == "h/p"


def test_runtime_exposes_speed_and_random():
    env, streams, net, hosts = build()
    comp = Component("probe")
    drv = SimDriver(env, net, hosts[0], "p", comp, streams)
    rt = comp.runtime
    assert rt.host_name() == "h0"
    assert rt.contact() == "h0/p"
    assert rt.speed() == hosts[0].effective_speed()
    r1, r2 = rt.random(), rt.random()
    assert 0 <= r1 <= 1 and 0 <= r2 <= 1 and r1 != r2


# ---------------------------------------------------------------------------
# Callback delivery: the driver has no process. These pin what replaced it.
# ---------------------------------------------------------------------------

class Periodic(Component):
    """Arms ``period`` at start and re-arms it on every firing; each firing
    is logged and (optionally) sends, which draws the network's jitter."""

    def __init__(self, name, log, period=30.0, dst=None, hello=None):
        super().__init__(name)
        self.log, self.period, self.dst, self.hello = log, period, dst, hello
        self.stops = []

    def on_start(self, now):
        self.log.append((self.name, "start", now))
        effects = [SetTimer("t", self.period)]
        if self.hello:
            effects.append(Send(self.hello, Message(mtype="HELLO", sender="")))
        return effects

    def on_timer(self, key, now):
        self.log.append((self.name, "timer", now))
        effects = [SetTimer("t", self.period)]
        if self.dst:
            effects.append(Send(self.dst, Message(mtype="TICK", sender="")))
        return effects

    def on_message(self, message, now):
        self.log.append((self.name, message.mtype, now))
        return []

    def on_stop(self, now, reason):
        self.stops.append((now, reason))


class DrawingCongestion(LoadModel):
    """Congestion model that logs each advance and the draw it took from
    the network's RNG — the stream ``Network.delay`` also draws from."""

    def __init__(self, log):
        self.log = log

    def advance(self, t, dt, rng):
        self.log.append(("net", "congestion", t, float(rng.random())))
        return 1.0


def test_on_start_runs_from_an_urgent_zero_delay_event():
    env, streams, net, hosts = build()
    log = []
    env.timeout(0).callbacks.append(lambda _e: log.append(("x", "normal", 0)))
    SimDriver(env, net, hosts[0], "p", Periodic("a", log), streams).start()
    assert log == []  # start() only schedules
    env.run(until=1)
    assert log == [("a", "start", 0), ("x", "normal", 0)]


def test_timer_wakeup_hops_behind_events_already_due_this_instant():
    """The driver's first 30 s wake-up is older than the congestion loop's
    first 30 s timeout (the driver started first), yet the loop's draw from
    the shared network RNG comes first: the wake-up hops once through the
    queue before firing timers, and the timer's send draws its jitter
    after it."""
    def run(driver_first):
        env = Environment()
        streams = RngStreams(seed=2)
        log = []
        net = Network(env, streams, jitter=0.2,
                      congestion_model=DrawingCongestion(log))
        hosts = [Host(env, HostSpec(name=f"h{i}"), streams) for i in range(2)]
        for h in hosts:
            net.add_host(h)
        sink = SimDriver(env, net, hosts[1], "p", Periodic("b", log, 1e9),
                         streams)
        drv = SimDriver(env, net, hosts[0], "p",
                        Periodic("a", log, 30.0, dst="h1/p"), streams)
        if driver_first:
            sink.start(), drv.start(), net.start()
        else:
            net.start(), sink.start(), drv.start()
        env.run(until=61)
        return [e[:3] for e in log if e[2] >= 30], [e for e in log if e[0] == "net"]

    order, draws = run(driver_first=True)
    assert order[:2] == [("net", "congestion", 30.0), ("a", "timer", 30.0)]
    assert order[3:5] == [("net", "congestion", 60.0), ("a", "timer", 60.0)]
    # Start order does not leak into the RNG stream.
    assert (order, draws) == run(driver_first=False)


def test_wakeup_is_rearmed_with_a_fresh_timeout_after_every_handled_event():
    """Same-deadline timers of two drivers fire in the order of their last
    handled event, not of their start: handling a message re-arms."""
    def order(with_message):
        env, streams, net, hosts = build()
        log = []
        a = Periodic("a", log)
        b = Periodic("b", log, hello="h0/p" if with_message else None)
        SimDriver(env, net, hosts[0], "p", a, streams).start()
        SimDriver(env, net, hosts[1], "p", b, streams).start()
        env.run(until=31)
        return [e[0] for e in log if e[1] == "timer"]

    assert order(with_message=False) == ["a", "b"]
    assert order(with_message=True) == ["b", "a"]


def test_an_unchanged_rearm_keeps_its_position_and_queues_nothing():
    """Re-arming at an unchanged deadline takes the sequence number a fresh
    wake-up would, without a queue entry: b's wake-up, queued before c's,
    still fires after it because b handled messages after c was armed."""
    def run(with_messages):
        env, streams, net, hosts = build(n_hosts=3)
        log = []
        drivers = [SimDriver(env, net, hosts[i], "p", comp, streams)
                   for i, comp in enumerate([Periodic("a", log),
                                             Periodic("b", log),
                                             Periodic("c", log, period=29.0)])]
        drivers[0].start(), drivers[1].start()
        env.run(until=1)
        drivers[2].start()  # armed for 1 + 29 = 30, the same instant
        queued = []
        for t in (10, 20):
            env.run(until=t)
            if with_messages:
                net.send(Address("h0", "tx"), drivers[1].address,
                         Message(mtype="HI", sender="h0/tx").encode())
            queued.append(len(env._queue))
            env.run(until=t + 1)
            queued.append(len(env._queue))
        env.run(until=31)
        return [e[0] for e in log if e[1] == "timer"], queued

    order, queued = run(with_messages=True)
    assert order == ["a", "c", "b"]
    # The arrival left the queue and b's unchanged re-arm added nothing.
    assert queued == [4, 3, 4, 3]
    assert run(with_messages=False) == (["a", "b", "c"], [3, 3, 3, 3])


def test_host_death_with_a_delivery_in_flight_then_respawn():
    env, streams, net, hosts = build()
    log = []
    victim = Periodic("v", log)
    drv = SimDriver(env, net, hosts[1], "p", victim, streams)
    drv.start()
    src = Address("h0", "tx")
    env.run(until=1)
    net.send(src, drv.address, Message(mtype="LATE", sender="h0/tx").encode())
    hosts[1].go_down("reclaimed")  # the LATE datagram is still in flight
    exits = []
    drv.process.callbacks.append(lambda ev: exits.append(ev.value))
    env.run(until=5)
    assert victim.stops == [(1, "host_down:reclaimed")]
    assert exits == ["host_down:reclaimed"]
    assert ("v", "LATE", pytest.approx(1.05, abs=0.1)) not in log
    assert net.stats.dropped_down == 1
    assert not net.is_bound(drv.address) and not drv.running
    assert hosts[1]._guests == {}
    with pytest.raises(SimulationError):
        drv.process.interrupt(HostDown(hosts[1], "again"))

    hosts[1].go_up()
    reborn = Periodic("v2", log)
    drv2 = SimDriver(env, net, hosts[1], "p", reborn, streams)
    drv2.start()
    net.send(src, drv2.address, Message(mtype="HI", sender="h0/tx").encode())
    env.run(until=10)
    assert [e[:2] for e in log if e[0] == "v2"] == [("v2", "start"), ("v2", "HI")]
    assert victim.stops == [(1, "host_down:reclaimed")]  # exactly once
    assert drv2.running and sorted(hosts[1]._guests) == ["drv:p"]


def test_gram_style_kill_interrupts_through_the_process_handle():
    """infra/globus.py kills a client on a host that stays up."""
    env, streams, net, hosts = build()
    comp = Periodic("c", [])
    drv = SimDriver(env, net, hosts[0], "p", comp, streams)
    handle = drv.start()
    assert handle is drv.process and handle.is_alive and drv.running
    env.run(until=2)
    handle.interrupt(HostDown(hosts[0], "gram-kill"))
    assert drv.running  # lands from an urgent event, as an Interrupt did
    env.run(until=3)
    assert comp.stops == [(2, "host_down:gram-kill")]
    assert not handle.is_alive and handle.value == "host_down:gram-kill"
    assert hosts[0].up and not net.is_bound(drv.address)


def test_spawning_on_a_down_host_is_refused():
    env, streams, net, hosts = build()
    hosts[0].go_down("dead")
    drv = SimDriver(env, net, hosts[0], "p", Component("c"), streams)
    with pytest.raises(RuntimeError):
        drv.start()
    assert drv.process is None and not drv.running


class PingPong(Component):
    def __init__(self, name, peer=None, rounds=0, timer=None):
        super().__init__(name)
        self.peer, self.left, self.timer = peer, rounds, timer
        self.got = 0

    def _ping(self):
        return [Send(self.peer, Message(mtype="PING", sender=self.contact))]

    def on_start(self, now):
        effects = [SetTimer("idle", self.timer)] if self.timer else []
        return effects + (self._ping() if self.peer else [])

    def on_message(self, message, now):
        self.got += 1
        if message.mtype == "PING":
            return [Send(message.sender,
                         message.reply("PONG", sender=self.contact))]
        self.left -= 1
        return self._ping() if self.left > 0 else []


def test_run_returns_when_timerless_drivers_go_idle():
    env, streams, net, hosts = build()
    ping = PingPong("ping", peer="h1/p", rounds=5)
    SimDriver(env, net, hosts[1], "p", PingPong("pong"), streams).start()
    SimDriver(env, net, hosts[0], "p", ping, streams).start()
    env.run()  # no until: must drain, not hang or raise
    assert ping.left == 0 and ping.got == 5
    assert env.peek() == float("inf")


@pytest.mark.parametrize("timer", [None, 1e6])
def test_at_most_three_queue_entries_per_delivered_message(timer):
    env, streams, net, hosts = build()
    rounds = 200
    ping = PingPong("ping", peer="h1/p", rounds=rounds, timer=timer)
    SimDriver(env, net, hosts[1], "p", PingPong("pong", timer=timer),
              streams).start()
    SimDriver(env, net, hosts[0], "p", ping, streams).start()
    env.run(until=0.01)  # past start-up: a few round trips in
    before, delivered = env._seq, net.stats.delivered
    env.run(until=1e5)
    assert ping.left == 0
    per_message = (env._seq - before) / (net.stats.delivered - delivered)
    # One network timeout, plus one re-armed wake-up when timers are armed.
    assert per_message <= (3 if timer else 1)


def test_a_delivered_message_allocates_no_timeout(monkeypatch):
    """A delivery is its own queue entry, not a Timeout carrying it, and a
    driver with nothing armed queues no wake-up."""
    timeouts = []
    timeout = Environment.timeout

    def counted(self, delay, value=None):
        timeouts.append(delay)
        return timeout(self, delay, value)

    monkeypatch.setattr(Environment, "timeout", counted)
    env, streams, net, hosts = build()
    ping = PingPong("ping", peer="h1/p", rounds=200)
    SimDriver(env, net, hosts[1], "p", PingPong("pong"), streams).start()
    SimDriver(env, net, hosts[0], "p", ping, streams).start()
    env.run(until=0.01)
    before, delivered = len(timeouts), net.stats.delivered
    env.run()
    assert ping.left == 0
    assert net.stats.delivered - delivered > 300
    assert len(timeouts) == before


def test_tracing_spans_and_handler_profile_still_fire():
    class Caller(PingPong):
        def on_start(self, now):
            return [SetTimer("t", 5.0),
                    Send(self.peer, Message(mtype="PING", sender=self.contact),
                         retry=RetryPolicy(max_attempts=2))]

        def on_timer(self, key, now):
            return []

    env, streams, net, hosts = build()
    tel = Telemetry(trace=True)
    tel.profiler = EngineProfiler()
    caller = Caller("caller", peer="h1/p", rounds=1)
    SimDriver(env, net, hosts[1], "p", PingPong("pong"), streams,
              telemetry=tel).start()
    SimDriver(env, net, hosts[0], "p", caller, streams, telemetry=tel).start()
    env.run(until=30)
    tracer = tel.tracer
    for name in ("start caller", "call PING", "recv PING", "recv PONG",
                 "timer t"):
        assert len(tracer.named(name)) == 1, name
    (call,) = tracer.named("call PING")
    assert call.outcome == "ok"
    (timer,) = tracer.named("timer t")
    assert timer.start == 5.0
    assert timer.parent_id == tracer.named("start caller")[0].span_id
    assert tel.profiler.handlers[("pong", "PING")][0] == 1
    assert tel.profiler.handlers[("caller", "PONG")][0] == 1


def test_raw_bytes_to_a_driver_are_parsed_and_garbage_is_dropped_without_effects():
    """A bare ``Network.send`` carries no typed record: the driver must
    parse the bytes, and count + drop what does not parse."""
    env, streams, net, hosts = build()
    echo = EchoServer()
    telemetry = Telemetry()
    drv = SimDriver(env, net, hosts[1], "echo", echo, streams,
                    telemetry=telemetry)
    drv.start()
    src = Address("h0", "raw")
    frame = Message(mtype="PING", sender="h0/raw", body={"n": 1}).encode()
    net.send(src, drv.address, frame)
    net.send(src, drv.address, b"garbage-bytes")
    net.send(src, drv.address, frame[:-1])  # truncated frame
    sent = net.stats.sent
    env.run(until=5)
    assert [m for m, _ in echo.seen] == ["PING"]  # parsed, handled once
    assert drv.endpoint.decode_errors == 2
    assert net.stats.delivered == 3  # the fabric delivered all three
    assert net.stats.sent == sent + 1  # one PONG; garbage caused no send
    assert telemetry.metrics.counter("msg.recv", mtype="PING").value == 1
    assert drv.handler_errors == 0 and drv.running


class Scatter(Component):
    """Sends one PING to every contact it is given, on start."""

    def __init__(self, contacts):
        super().__init__("scatter")
        self.contacts = contacts

    def on_start(self, now):
        return [Send(dst, Message("PING", self.contact, {}))
                for dst in self.contacts]


def test_hostile_contacts_leave_the_contact_table_bounded():
    """10,000 distinct made-up contacts: the well-formed ones pass
    through the world's contact table without growing it past its cap,
    the malformed ones are never cached and each is one metered drop,
    and a cached route is exactly what parsing the contact gives."""
    from repro.simgrid import network

    hostile = [f"x{i}/p" if i % 4 else f"bad-{i}" for i in range(10_000)]
    env, streams, net, hosts = build()
    driver = SimDriver(env, net, hosts[0], "s", Scatter(hostile), streams)
    driver.start()
    env.run(until=5.0)
    malformed = [dst for dst in hostile if "/" not in dst]
    assert driver.send_errors == len(malformed) == 2_500
    assert net.stats.sent == net.stats.dropped_unbound == 7_500
    assert 0 < len(net._routes) <= network._ROUTES_MAX
    assert not set(malformed) & set(net._routes)
    for dst, route in net._routes.items():
        assert route == Address.parse(dst) and str(route) == dst
    # A route the table holds is the very object every later send uses.
    dst = next(iter(net._routes))
    assert driver._resolve(dst) is net._routes[dst]


# -- SimWorld: relaunch after a planned reboot -------------------------------

class Starts(Component):
    """Records every on_start time (the same object across relaunches)."""

    def __init__(self, name):
        super().__init__(name)
        self.starts = []

    def on_start(self, now):
        self.starts.append(now)
        return []


def _rebooting_world(*crashes):
    world = SimWorld(seed=3)
    host = world.host("svc")
    service, guest = Starts("svc"), Starts("guest")
    first = world.spawn(host, "svc", service, service=True)
    world.spawn(host, "guest", guest)
    plan = FaultPlan()
    for at, reboot_after in crashes:
        plan.crash(at, "svc", reboot_after=reboot_after)
    world.install(plan)
    return world, service, guest, first


def test_a_service_is_relaunched_one_second_after_its_host_reboots():
    world, service, guest, first = _rebooting_world((10.0, 20.0))
    world.env.run(until=30.5)  # rebooted at 30, not yet relaunched
    assert world.network.host("svc").up and service.starts == [0.0]
    world.env.run(until=40.0)
    assert service.starts == [0.0, 31.0]
    driver = world.services["svc/svc"]
    assert driver is not first and driver.running
    assert driver.component is service


def test_a_non_service_driver_is_not_relaunched():
    world, service, guest, _ = _rebooting_world((10.0, 20.0))
    world.env.run(until=100.0)
    assert guest.starts == [0.0]
    assert list(world.services) == ["svc/svc"]


def test_a_host_down_again_at_relaunch_time_gets_nothing():
    world, service, guest, first = _rebooting_world((10.0, 20.0),
                                                    (30.5, None))
    world.env.run(until=100.0)
    assert not world.network.host("svc").up
    assert service.starts == [0.0]
    assert world.services["svc/svc"] is first and not first.running

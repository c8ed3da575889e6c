"""The same sans-IO components on real TCP: NetDriver tests.

These run actual localhost sockets; drivers are pumped from threads in
the tests (the library itself stays single-threaded)."""

import threading
import time

import pytest

from repro.core.component import Component, Send, SetTimer, Stop, segment
from repro.core.gossip import ComparatorRegistry, GossipAgent, GossipServer, StateStore
from repro.core.linguafranca.messages import Message
from repro.core.netdriver import NetDriver
from repro.core.telemetry import Telemetry
from repro.simgrid.profile import EngineProfiler


class DriverThread:
    def __init__(self, *drivers):
        self.drivers = drivers
        self._stop = threading.Event()
        self.threads = [
            threading.Thread(target=self._pump, args=(d,), daemon=True)
            for d in drivers
        ]

    def _pump(self, driver):
        driver.start()
        while not self._stop.is_set():
            driver.step(0.02)

    def __enter__(self):
        for t in self.threads:
            t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for t in self.threads:
            t.join(timeout=2)
        for d in self.drivers:
            d.close()


class EchoComponent(Component):
    def __init__(self):
        super().__init__("echo")
        self.seen = []

    def on_message(self, message, now):
        self.seen.append(message.mtype)
        if message.mtype == "PING":
            return [Send(message.sender, message.reply("PONG", sender=self.contact))]
        return []


class TickerComponent(Component):
    def __init__(self, period=0.05, limit=3):
        super().__init__("ticker")
        self.period = period
        self.limit = limit
        self.ticks = 0

    def on_start(self, now):
        return [SetTimer("tick", self.period)]

    def on_timer(self, key, now):
        self.ticks += 1
        if self.ticks >= self.limit:
            return [Stop("done")]
        return [SetTimer("tick", self.period)]


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def test_timers_fire_on_wall_clock():
    comp = TickerComponent(period=0.03, limit=3)
    driver = NetDriver(comp)
    reason = driver.run(duration=2.0)
    driver.close()
    assert comp.ticks == 3
    assert reason == "done"


def test_two_components_message_over_real_sockets():
    """...and the live plane fills the same handler-timing table as the
    simulated one: one cell per handled (component, mtype)."""
    telemetry = Telemetry()
    telemetry.profiler = EngineProfiler()
    echo = EchoComponent()
    echo_driver = NetDriver(echo, telemetry=telemetry)

    class Caller(Component):
        def __init__(self, target):
            super().__init__("caller")
            self.target = target
            self.got = []

        def on_start(self, now):
            return [Send(self.target, Message(mtype="PING", sender=self.contact,
                                              req_id=1))]

        def on_message(self, message, now):
            self.got.append(message.mtype)
            return []

    echo_driver.start()
    caller = Caller(echo_driver.contact)
    caller_driver = NetDriver(caller, telemetry=telemetry)
    with DriverThread(echo_driver, caller_driver):
        assert wait_until(lambda: caller.got == ["PONG"])
    assert echo.seen == ["PING"]
    handlers = telemetry.profiler.handlers
    assert {cell: calls for cell, (calls, _, _) in handlers.items()} == {
        ("echo", "PING"): 1, ("caller", "PONG"): 1}


def test_send_to_dead_peer_is_silent():
    class Talker(Component):
        def on_start(self, now):
            return [Send("127.0.0.1:1", Message(mtype="X", sender=self.contact))]

    driver = NetDriver(Talker("talker"))
    driver.start()
    driver.close()
    assert driver.send_errors == 1  # recorded, not raised — fire-and-forget


def test_real_gossip_pool_over_tcp():
    """An actual GossipServer + a component agent on localhost sockets:
    registration, polling, and update delivery all over real TCP."""
    comparators = ComparatorRegistry()
    gossip = GossipServer("gos0", well_known=[], comparators=comparators,
                          poll_period=0.1, sync_period=0.3,
                          token_period=0.2, token_timeout=1.0)
    gossip_driver = NetDriver(gossip)
    gossip_driver.start()
    gossip.well_known.append(gossip_driver.contact)

    class Worker(Component):
        def __init__(self, well_known):
            super().__init__("worker")
            self.well_known = well_known
            self.store = None
            self.agent = None

        def on_start(self, now):
            self.store = StateStore(self.contact)
            self.store.register("NOTE", initial={"v": 1}, now=now)
            self.agent = GossipAgent(self.store, self.well_known,
                                     register_period=0.5)
            return self.agent.on_start(now, self.contact)

        def on_message(self, message, now):
            if GossipAgent.handles(message.mtype):
                return self.agent.on_message(message, now, self.contact)
            return []

        def on_timer(self, key, now):
            if GossipAgent.handles_timer(key):
                return self.agent.on_timer(key, now, self.contact)
            return []

    worker = Worker([gossip_driver.contact])
    worker_driver = NetDriver(worker)

    with DriverThread(gossip_driver, worker_driver):
        assert wait_until(lambda: worker.agent is not None
                          and worker.agent.registered_with is not None)
        assert wait_until(lambda: gossip.stats.states_received >= 1)
    assert worker.contact in gossip.registry
    assert gossip.freshest["NOTE"].data == {"v": 1}


def test_netdriver_default_timeout_policy_is_forecast_driven():
    driver = NetDriver(EchoComponent())
    try:
        assert driver.timeout_policy.dynamic
        assert driver.timeout_policy.timeout_for() == pytest.approx(2.0)
    finally:
        driver.close()


def test_netdriver_send_timeout_kwarg_removed():
    with pytest.raises(TypeError):
        NetDriver(EchoComponent(), send_timeout=1.5)


def test_netdriver_explicit_policy_wins_silently():
    import warnings

    from repro.core.policy import TimeoutPolicy

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        driver = NetDriver(EchoComponent(),
                           timeout_policy=TimeoutPolicy.static(3.0))
    try:
        assert driver.timeout_policy.timeout_for() == 3.0
    finally:
        driver.close()


# -- graceful shutdown (live-plane satellite) --------------------------------


class IdleComponent(Component):
    """No timers, no sends: shutdown-path scaffolding."""


def test_request_stop_breaks_run_loop():
    driver = NetDriver(IdleComponent("idle"))
    try:
        driver.request_stop("external")
        driver.request_stop("late")  # first reason wins
        reason = driver.run(5.0)
        assert reason == "external"
        assert driver.stop_reason == "external"
    finally:
        driver.shutdown()


def test_shutdown_runs_drain_hooks_once_and_survives_raising_hooks():
    driver = NetDriver(IdleComponent("idle"))
    calls = []
    driver.drain_hooks.append(lambda: calls.append("first"))
    driver.drain_hooks.append(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
    driver.drain_hooks.append(lambda: calls.append("last"))
    driver.start()
    reason = driver.shutdown()
    assert calls == ["first", "last"]
    assert driver.shutdown() == reason  # idempotent, hooks not re-run
    assert calls == ["first", "last"]


def test_shutdown_cancels_timers_and_closes_sockets():
    driver = NetDriver(TickerComponent())
    driver.start()
    assert driver._deadlines.timers
    driver.shutdown()
    assert not driver._deadlines.timers
    with pytest.raises(Exception):
        driver.server.step(0.01)  # server socket is gone


def test_sigterm_translates_to_graceful_stop():
    import os
    import signal

    driver = NetDriver(IdleComponent("idle"))
    previous = signal.getsignal(signal.SIGTERM)
    try:
        driver.install_signal_handlers(signal.SIGTERM)
        os.kill(os.getpid(), signal.SIGTERM)
        reason = driver.run(5.0)
        assert reason == "signal:SIGTERM"
    finally:
        signal.signal(signal.SIGTERM, previous)
        driver.shutdown()


def test_tick_hook_rides_the_reactor_loop():
    driver = NetDriver(IdleComponent("idle"))
    ticks = []
    driver.tick_hook = lambda: ticks.append(driver.now())
    try:
        driver.run(0.12)
        assert ticks, "tick hook never ran"
    finally:
        driver.shutdown()


# -- the byte-stream listener -------------------------------------------------

class ShoutComponent(Component):
    """Answers each segment with its bytes upper-cased; a ``!`` ends the
    stream (a FIN on the answer, a million times over: more than one
    flush)."""

    def __init__(self):
        super().__init__("shout")
        self.segments = []

    def on_message(self, message, now):
        self.segments.append((message.sender, message.body))
        data = message.body["d"]
        if message.body.get("fin") or not data:
            return []
        fin = b"!" in data
        return [Send(message.sender, segment(
            self.contact, data.upper() * (
                1_000_000 if fin else 1), fin=fin))]


def _stream_driver():
    import socket

    component = ShoutComponent()
    driver = NetDriver(component, stream="127.0.0.1:0")
    sock = socket.socket()
    # A small window keeps a long answer in the driver's queue.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect(driver.streams.address)
    sock.settimeout(0.01)
    return component, driver, sock


def _pump_until(driver, done, budget=3.0):
    deadline = time.monotonic() + budget
    while not done() and time.monotonic() < deadline:
        driver.step(0.002)
    assert done()


def _recv(sock):
    try:
        return sock.recv(4096)
    except TimeoutError:
        return None


def test_a_stream_peer_is_a_contact_its_reads_segments_its_sends_writes():
    component, driver, sock = _stream_driver()
    try:
        sock.sendall(b"hello")
        got = []
        _pump_until(driver, lambda: got.append(_recv(sock))
                    or b"".join(filter(None, got)) == b"HELLO")
        ((peer, body),) = component.segments
        assert peer.startswith("stream:") and body == {"d": b"hello"}
        sock.close()                      # the peer hangs up: a FIN
        _pump_until(driver, lambda: len(component.segments) == 2)
        assert component.segments[1] == (peer, {"d": b"", "fin": True})
        # The connection is gone: a late send is a metered drop, never a
        # connect to somewhere.
        driver._apply([Send(peer, segment("x", b"late"))], driver.now())
        assert driver.send_errors == 1 and driver.sender.pending() == 0
    finally:
        driver.close()


def test_only_a_segment_is_written_down_a_stream():
    """A message of another kind sent to a stream contact (a scheduler
    answering a contact it was handed) is a metered drop, and the
    connection stays as it was."""
    component, driver, sock = _stream_driver()
    try:
        sock.sendall(b"hi")
        _pump_until(driver, lambda: component.segments)
        ((peer, _),) = component.segments
        driver._apply([Send(peer, Message("SCH_WORK", "x", {"unit": None}))],
                      driver.now())
        assert driver.send_errors == 1
        sock.sendall(b"again")
        got = []
        _pump_until(driver, lambda: got.append(_recv(sock))
                    or b"".join(filter(None, got)) == b"HIAGAIN")
    finally:
        sock.close()
        driver.close()


def test_a_segment_sent_to_a_world_contact_is_a_metered_drop():
    """A segment's bytes ride no lingua-franca frame: sent to a
    ``host:port`` contact, with or without a stream listener, it is
    dropped and counted, never raised and never connected anywhere."""
    for stream in (None, "127.0.0.1:0"):
        driver = NetDriver(ShoutComponent(), stream=stream)
        try:
            driver._apply([Send("127.0.0.1:9", segment(
                "x", b"GET / HTTP/1.1\r\n\r\n\xff"))], driver.now())
            assert driver.send_errors == 1 and driver.sender.pending() == 0
        finally:
            driver.close()


def test_a_fin_on_a_sent_segment_closes_the_connection_once_flushed():
    component, driver, sock = _stream_driver()
    try:
        sock.sendall(b"bye!")
        _pump_until(driver, lambda: component.segments)
        (conn,) = driver.streams._conns
        assert conn.out                  # the answer is still flushing ...
        sock.sendall(b"more")            # ... when more bytes arrive
        got = []
        _pump_until(driver, lambda: got.append(_recv(sock)) or b"" in got)
        assert b"".join(filter(None, got)) == b"BYE!" * 1_000_000
        # The component let go of the connection itself: neither the
        # late bytes nor a FIN come back to it.
        for _ in range(10):
            driver.step(0.002)
        assert [body for _, body in component.segments] == [{"d": b"bye!"}]
    finally:
        sock.close()
        driver.close()

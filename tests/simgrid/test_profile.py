"""Handler timing: an :class:`EngineProfiler` set on the world's
``Telemetry`` must count every handled message per ``(component, mtype)``
without changing what the simulation computes, and the report/render
surfaces must be well-formed. Wall-clock values are asserted only as sane
(>= 0), never exact — they are intentionally not deterministic.
"""

from repro.core.component import Component, Send
from repro.core.linguafranca.messages import Message
from repro.core.simdriver import SimDriver
from repro.core.telemetry import Telemetry
from repro.simgrid.engine import Environment
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.network import Network
from repro.simgrid.profile import EngineProfiler
from repro.simgrid.rand import RngStreams


class Ping(Component):
    def __init__(self, dst, n):
        super().__init__("ping")
        self.dst = dst
        self.left = n
        self.pongs = 0

    def on_start(self, now):
        return [Send(self.dst, Message(mtype="PING", sender=self.contact,
                                       body={}))]

    def on_message(self, message, now):
        self.pongs += 1
        self.left -= 1
        if self.left <= 0:
            return []
        return [Send(self.dst, Message(mtype="PING", sender=self.contact,
                                       body={}))]


class Pong(Component):
    def on_message(self, message, now):
        return [Send(message.sender, message.reply("PONG",
                                                   sender=self.contact))]


def _run(profiler, n=20):
    env = Environment()
    streams = RngStreams(seed=11)
    net = Network(env, streams, jitter=0.0)
    hosts = [Host(env, HostSpec(name=f"h{i}"), streams) for i in range(2)]
    for h in hosts:
        net.add_host(h)
    tel = Telemetry()
    tel.profiler = profiler
    ping = Ping("h1/pong", n)
    SimDriver(env, net, hosts[1], "pong", Pong("pong"), streams,
              telemetry=tel).start()
    SimDriver(env, net, hosts[0], "ping", ping, streams, telemetry=tel).start()
    env.run(until=600)
    return env, ping


def test_record_handler_accumulates():
    p = EngineProfiler()
    p.record_handler("sched0", "SCH_REPORT", 0.002)
    p.record_handler("sched0", "SCH_REPORT", 0.004)
    p.record_handler("cli0", "SCH_WORK", 0.001)
    assert p.handlers[("sched0", "SCH_REPORT")] == [2, 0.006, 0.004]
    report = p.report()
    cell = report["handlers"]["sched0:SCH_REPORT"]
    assert cell["calls"] == 2
    assert cell["max_us"] == 4000.0


def test_profiled_run_counts_events_and_preserves_outcome():
    baseline_env, baseline_ping = _run(profiler=None)
    profiler = EngineProfiler()
    env, ping = _run(profiler=profiler)
    # Same simulated outcome: the profiler observes, never perturbs.
    assert ping.pongs == baseline_ping.pongs == 20
    assert env.now == baseline_env.now
    # Both drivers fed one cell per handled (component, mtype).
    assert {cell: calls for cell, (calls, _, _) in profiler.handlers.items()
            } == {("pong", "PING"): 20, ("ping", "PONG"): 20}
    for calls, total, mx in profiler.handlers.values():
        assert total >= mx >= 0.0


def test_report_and_render_are_well_formed():
    profiler = EngineProfiler()
    _run(profiler=profiler)
    report = profiler.report()
    assert list(report["handlers"]) == ["ping:PONG", "pong:PING"]
    assert all(cell["calls"] == 20 and cell["mean_us"] >= 0.0
               for cell in report["handlers"].values())
    text = profiler.render()
    assert "handled messages : 40" in text
    assert "slowest handlers" in text
    assert "pong" in text


def test_profiler_detached_by_default():
    assert Telemetry().profiler is None


def test_accumulates_across_runs():
    profiler = EngineProfiler()
    _run(profiler=profiler, n=5)
    assert profiler.handlers[("ping", "PONG")][0] == 5
    _run(profiler=profiler, n=5)
    assert profiler.handlers[("ping", "PONG")][0] == 10

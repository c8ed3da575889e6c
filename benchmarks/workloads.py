"""Perf-harness workloads: the repository's hot paths, as callables.

Each function performs one measurable unit of work and returns the number
of work items completed; callers (the pytest benches, ``perf_snapshot.py``
and the CI perf smoke) time the call and report ``items / elapsed``.

All ``repro`` imports happen inside the functions so that
``perf_snapshot.py --before-tree`` can re-point ``sys.path`` at another
checkout (e.g. the seed commit in a git worktree) and measure both trees
interleaved in one process — the only reliable way to compare throughput
on a noisy machine.
"""

from __future__ import annotations

N_TIMEOUT_EVENTS = 200_000
N_ROUNDTRIPS = 5_000
N_DRIVER_ROUNDTRIPS = 3_000
N_TABU_STEPS = 200
N_RECOUNTS = 20
N_INGEST_RECORDS = 200_000
N_CODEC_MESSAGES = 50_000


def run_timeout_storm(n_events: int = N_TIMEOUT_EVENTS) -> int:
    """Bare timer events through the DES engine (20 free-running tickers)."""
    from repro.simgrid.engine import Environment

    env = Environment()

    def ticker(env, period):
        while True:
            yield env.timeout(period)

    for i in range(20):
        env.process(ticker(env, 1.0 + i * 0.01))
    env.run(until=n_events / 20)
    return n_events


def run_message_pingpong(n: int = N_ROUNDTRIPS) -> int:
    """Full request/response cycles through network, endpoint and codec."""
    from repro.core.linguafranca.endpoint import SimEndpoint
    from repro.core.linguafranca.messages import Message
    from repro.simgrid.engine import Environment
    from repro.simgrid.host import Host, HostSpec
    from repro.simgrid.network import Address, Network
    from repro.simgrid.rand import RngStreams

    env = Environment()
    streams = RngStreams(seed=1)
    net = Network(env, streams, jitter=0.0)
    for name in ("a", "b"):
        net.add_host(Host(env, HostSpec(name=name), streams))
    server = SimEndpoint(env, net, Address("b", "svc"))
    client = SimEndpoint(env, net, Address("a", "cli"))

    def server_proc(env):
        while True:
            msg = yield from server.recv(None)
            server.send(msg.sender, msg.reply("PONG", sender=server.contact))

    def client_proc(env):
        done = 0
        for i in range(n):
            reply, _ = yield from client.request(
                "b/svc", Message(mtype="PING", sender="", body={"i": i}),
                timeout=10)
            if reply is not None:
                done += 1
        return done

    env.process(server_proc(env))
    proc = env.process(client_proc(env))
    env.run(until=proc)
    assert proc.value == n
    return n


def run_driver_pingpong(n: int = N_DRIVER_ROUNDTRIPS, trace: bool = False) -> int:
    """Request/response cycles through the component driver — the path
    the observability layer instruments (telemetry counters, optional
    span begin/finish per send, recv and timer)."""
    from repro.core.component import Component, Send
    from repro.core.linguafranca.messages import Message
    from repro.core.simdriver import SimDriver
    from repro.core.telemetry import Telemetry
    from repro.simgrid.engine import Environment
    from repro.simgrid.host import Host, HostSpec
    from repro.simgrid.network import Network
    from repro.simgrid.rand import RngStreams

    class Ping(Component):
        def __init__(self):
            super().__init__("ping")
            self.left = n

        def on_start(self, now):
            return [Send("b/pong", Message(mtype="PING", sender=self.contact,
                                           body={}))]

        def on_message(self, message, now):
            self.left -= 1
            if self.left <= 0:
                return []
            return [Send("b/pong", Message(mtype="PING", sender=self.contact,
                                           body={}))]

    class Pong(Component):
        def on_message(self, message, now):
            return [Send(message.sender,
                         message.reply("PONG", sender=self.contact))]

    env = Environment()
    streams = RngStreams(seed=1)
    net = Network(env, streams, jitter=0.0)
    hosts = {name: Host(env, HostSpec(name=name), streams)
             for name in ("a", "b")}
    for h in hosts.values():
        net.add_host(h)
    telemetry = Telemetry(trace=trace)
    net.attach_telemetry(telemetry)
    ping = Ping()
    SimDriver(env, net, hosts["b"], "pong", Pong("pong"), streams,
              telemetry=telemetry).start()
    SimDriver(env, net, hosts["a"], "cli", ping, streams,
              telemetry=telemetry).start()
    env.run()
    assert ping.left == 0
    return n


def run_tabu_search(steps: int = N_TABU_STEPS) -> int:
    """Tabu-search moves on the K_43 R(5,5) problem (§3 heuristics)."""
    import numpy as np

    from repro.ramsey.graphs import OpCounter
    from repro.ramsey.heuristics import TabuSearch

    search = TabuSearch(43, 5, np.random.default_rng(0),
                        ops=OpCounter(), candidates=8)
    search.run(max_steps=steps, target=-1)
    return steps


def run_clique_recount(reps: int = N_RECOUNTS) -> int:
    """Full monochromatic-K_5 recounts of a random K_43 coloring."""
    import numpy as np

    from repro.ramsey.graphs import Coloring, OpCounter, count_mono_cliques

    coloring = Coloring.random(43, np.random.default_rng(7))
    ops = OpCounter()
    for _ in range(reps):
        count_mono_cliques(coloring, 5, ops)
    return reps


def run_metrics_ingest(n: int = N_INGEST_RECORDS) -> int:
    """Perf-record ingestion into TimeBuckets (batched when available)."""
    import numpy as np

    from repro.experiments.metrics import TimeBuckets

    rng = np.random.default_rng(3)
    ts = rng.uniform(0.0, 1000.0, n)
    values = rng.uniform(0.0, 10.0, n)
    buckets = TimeBuckets(0.0, 10.0, 100)
    add_many = getattr(buckets, "add_many", None)
    if add_many is not None:
        add_many(ts, values)
    else:  # pre-batching trees: one scalar add per record
        add = buckets.add
        for t, v in zip(ts, values):
            add(t, v)
    return n


def run_codec_roundtrip(n: int = N_CODEC_MESSAGES) -> int:
    """Encode+decode of a periodically re-sent (identical) control message."""
    from repro.core.linguafranca.messages import Message

    for _ in range(n):
        msg = Message(mtype="GOS_HEARTBEAT", sender="h1/gossip",
                      body={"seq": 42, "load": 0.5})
        Message.decode(msg.encode())
    return n


def run_codec_decode(n: int = N_CODEC_MESSAGES) -> int:
    """Decode-only of a pre-encoded stream — isolates the zero-copy
    deframe+parse path (single-packet and TCP-style stream decoder)."""
    from repro.core.linguafranca.messages import Message
    from repro.core.linguafranca.packets import PacketDecoder

    wire = Message(mtype="SCHED_POLL", sender="h1/sched",
                   body={"queue": "ramsey", "depth": 17}).encode()
    half = n // 2
    for _ in range(half):
        Message.decode(wire)
    decoder = PacketDecoder()
    next_record = getattr(decoder, "next_record", None)
    if next_record is not None:
        for _ in range(n - half):
            decoder.feed(wire)
            next_record(Message.from_parts)
    else:  # pre-zero-copy trees: copy out, then parse
        for _ in range(n - half):
            decoder.feed(wire)
            mtype, payload = decoder.next_packet()
            Message.from_parts(mtype, payload)
    return n

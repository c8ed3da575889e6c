"""Ladder cells: the isolated cost of one operation at each layer, in
microseconds. Each cell calls only the layer's public functions, on
inputs from the same seeded generator as the workloads.

Every rung function imports and builds its inputs, then returns the
callable that performs ``n`` operations; only that callable is timed.

Read the rungs against the traced layers, not as a sum: a rung is the
floor for its layer with nothing else in the way; the traced self time
is what the layer costs inside a whole world.

A rung whose public entry point no longer exists reads 0 with a note
(the same policy as a missing wrap target), so a later refactor does not
take the whole benchmark down.
"""

from __future__ import annotations

import os
import random
import socket
from time import perf_counter
from typing import Callable

from workloads import Gateway, KeepAwake, render_posts

__all__ = ["sim_ladder", "control_ladder"]


def _us_per_op(run: Callable[[], None], n: int) -> float:
    t0 = perf_counter()
    run()
    return (perf_counter() - t0) / n * 1e6


def _two_hosts():
    from repro.simgrid.engine import Environment
    from repro.simgrid.host import Host, HostSpec
    from repro.simgrid.network import Network
    from repro.simgrid.rand import RngStreams

    env = Environment()
    streams = RngStreams(seed=1)
    net = Network(env, streams, jitter=0.0)
    hosts = {name: Host(env, HostSpec(name=name), streams)
             for name in ("a", "b")}
    for host in hosts.values():
        net.add_host(host)
    return env, streams, net, hosts


# -- sim rungs ----------------------------------------------------------------

def engine_event(rng: random.Random, n: int) -> Callable:
    from repro.simgrid.engine import Environment
    env = Environment()

    def ticker(period):
        while True:
            yield env.timeout(period)
    for _ in range(20):
        env.process(ticker(1.0 + rng.random() * 0.2))
    return lambda: env.run(until=n / 20)


def store_getput(rng: random.Random, n: int) -> Callable:
    from repro.simgrid.engine import Environment
    from repro.simgrid.resources import Store
    env = Environment()
    store = Store(env)
    items = [rng.random() for _ in range(64)]

    def producer():
        for i in range(n):
            yield store.put(items[i % 64])

    def consumer():
        for _ in range(n):
            yield store.get()
    env.process(producer())
    done = env.process(consumer())
    return lambda: env.run(until=done)


def net_send(rng: random.Random, n: int) -> Callable:
    from repro.simgrid.network import Address
    env, _streams, net, _hosts = _two_hosts()
    src, dst = Address("a", "tx"), Address("b", "rx")
    box = net.bind(dst)
    payloads = [rng.randbytes(rng.randrange(64, 512)) for _ in range(64)]

    def consumer():
        for _ in range(n):
            yield box.get()
    done = env.process(consumer())

    def run():
        for i in range(n):
            net.send(src, dst, payloads[i % 64])
        env.run(until=done)
    return run


def codec_roundtrip(rng: random.Random, n: int) -> Callable:
    from repro.core.linguafranca.messages import Message
    bodies = [{"seq": rng.randrange(1 << 30), "load": rng.random(),
               "tags": [rng.randrange(100) for _ in range(4)]}
              for _ in range(64)]
    def run():
        for i in range(n):
            # req_id set: a correlated message, which the encode cache skips.
            wire = Message(mtype="LADDER_MSG", sender="a/x",
                           body=bodies[i % 64], req_id=i).encode()
            Message.decode(wire)
    return run


def endpoint_roundtrip(rng: random.Random, n: int) -> Callable:
    from repro.core.linguafranca.endpoint import SimEndpoint
    from repro.core.linguafranca.messages import Message
    from repro.simgrid.network import Address
    env, _streams, net, _hosts = _two_hosts()
    server = SimEndpoint(env, net, Address("b", "svc"))
    client = SimEndpoint(env, net, Address("a", "cli"))
    values = [rng.random() for _ in range(64)]

    def serve():
        while True:
            msg = yield from server.recv(None)
            server.send(msg.sender, msg.reply("PONG", sender=server.contact))

    def ask():
        for i in range(n):
            reply, _ = yield from client.request(
                "b/svc", Message(mtype="PING", sender="",
                                 body={"v": values[i % 64]}), timeout=10)
            assert reply is not None
    env.process(serve())
    done = env.process(ask())
    return lambda: env.run(until=done)


def driver_roundtrip(rng: random.Random, n: int) -> Callable:
    from repro.core.component import Component, Send
    from repro.core.linguafranca.messages import Message
    from repro.core.simdriver import SimDriver
    env, streams, net, hosts = _two_hosts()
    values = [rng.random() for _ in range(64)]

    class Ping(Component):
        left = n

        def _ping(self):
            return [Send("b/pong", Message(
                mtype="PING", sender=self.contact,
                body={"v": values[self.left % 64]}))]

        def on_start(self, now):
            return self._ping()

        def on_message(self, message, now):
            self.left -= 1
            return self._ping() if self.left > 0 else []

    class Pong(Component):
        def on_message(self, message, now):
            return [Send(message.sender,
                         message.reply("PONG", sender=self.contact))]

    ping = Ping("ping")
    SimDriver(env, net, hosts["b"], "pong", Pong("pong"), streams).start()
    SimDriver(env, net, hosts["a"], "cli", ping, streams).start()

    def run():
        env.run()
        assert ping.left == 0
    return run


def gossip_round(rng: random.Random, n: int) -> Callable:
    """One sync round between two pool members, handlers called
    directly: no engine, network or codec underneath."""
    from repro.core.component import NullRuntime, Send
    from repro.core.gossip.server import T_SYNC, GossipServer
    from repro.core.gossip.state import StateRecord

    contacts = ["ga/gossip", "gb/gossip"]
    runtimes = {c: NullRuntime(contact=c) for c in contacts}
    servers = {}
    for contact in contacts:
        server = GossipServer(contact.split("/")[0], well_known=contacts,
                              sync_period=10.0, token_period=1e9,
                              token_timeout=1e9)
        server.bind_runtime(runtimes[contact])
        servers[contact] = server

    def deliver(sender: str, effects: list, now: float) -> None:
        pending = [(sender, eff) for eff in effects if isinstance(eff, Send)]
        while pending:
            src, eff = pending.pop()
            target = servers.get(eff.dst)
            if target is None:
                continue
            if not eff.message.sender:
                eff.message.sender = src
            pending.extend(
                (eff.dst, out) for out in target.on_message(eff.message, now)
                if isinstance(out, Send))

    for contact, server in servers.items():
        deliver(contact, server.on_start(0.0), 0.0)

    def run():
        now = 0.0
        for i in range(n):
            now += 10.0
            for runtime in runtimes.values():
                runtime.t = now
            writer = servers[contacts[i % 2]]
            writer.seed_records([StateRecord(
                mtype=f"LADDER_{i % 8}", data={"v": rng.random()}, stamp=now,
                origin=contacts[i % 2], seq=i + 1)], hot=True)
            for contact, server in servers.items():
                deliver(contact, server.on_timer(T_SYNC, now), now)
        assert (servers[contacts[0]].digest.root
                == servers[contacts[1]].digest.root)
    return run


def forecast_update(rng: random.Random, n: int) -> Callable:
    from repro.core.forecasting.selector import ForecasterBank
    bank = ForecasterBank()
    values = [rng.random() for _ in range(256)]

    def run():
        for i in range(n):
            bank.update(values[i % 256])
        bank.forecast()
    return run


def bank_build(rng: random.Random, n: int) -> Callable:
    from repro.core.forecasting.selector import ForecasterBank

    def run():
        for _ in range(n):
            ForecasterBank()
    return run


# -- control rungs --------------------------------------------------------------

def tcp_echo(rng: random.Random, n: int) -> Callable:
    """One framed packet to a ``TcpServer`` on loopback and back,
    window 1; client and reactor share this thread."""
    from repro.core.linguafranca.packets import PacketDecoder, encode_packet
    from repro.core.linguafranca.tcp import TcpServer

    server = TcpServer("127.0.0.1", 0, handler=lambda message: None,
                       raw_handler=lambda mtype, view: encode_packet(
                           mtype, bytes(view)))
    frames = [encode_packet("ECHO", rng.randbytes(rng.randrange(64, 512)))
              for _ in range(64)]
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    decoder = PacketDecoder()

    def run():
        try:
            for i in range(n):
                sock.send(frames[i % 64])
                while True:
                    server.step(0.0)
                    try:
                        data = sock.recv(65536)
                    except BlockingIOError:
                        continue
                    decoder.feed(data)
                    if decoder.next_packet() is not None:
                        break
        finally:
            sock.close()
            server.close()
    return run


def http_decode(posts: list, n: int) -> Callable:
    from repro.control import HttpDecoder
    decoder = HttpDecoder()

    def run():
        for i in range(n):
            decoder.feed(posts[i % len(posts)])
            assert decoder.next_request() is not None
    return run


def _fresh(path: str) -> str:
    """``path``, with whatever a kept ``--out`` directory held there gone."""
    if os.path.exists(path):
        os.remove(path)
    return path


def _bodies(posts: list) -> list:
    return [post.partition(b"\r\n\r\n")[2] for post in posts]


def route(posts: list, n: int) -> Callable:
    from repro.control import GatewayCore, MemoryJournal, WorkQueue
    core = GatewayCore("ladder", WorkQueue(journal=MemoryJournal()))
    bodies = _bodies(posts)

    def run():
        for i in range(n):
            status, _doc, _route = core.handle(
                "POST", "/jobs", bodies[i % len(bodies)], float(i))
            assert status == 201
    return run


def journal_append(posts: list, path: str, n: int) -> Callable:
    import json

    from repro.control import FileJournal
    journal = FileJournal(path)
    specs = [json.loads(body) for body in _bodies(posts)]

    def run():
        try:
            for i in range(n):
                journal.append({"op": "submit", "id": f"ladder-{i}",
                                "spec": specs[i % len(specs)], "t": float(i)})
        finally:
            journal.close()
    return run


def render(rng: random.Random, n: int) -> Callable:
    from repro.control import render_payload
    docs = [{"id": f"e2e-{rng.randrange(1 << 20)}", "state": "queued",
             "submitted_at": rng.random() * 1e4} for _ in range(64)]

    def run():
        for i in range(n):
            render_payload(201, docs[i % 64], "POST /jobs")
    return run


class _PostOnly:
    """One ``POST /jobs``; the flow ends at its 201."""

    __slots__ = ("post", "refused")

    def __init__(self, post: bytes, refused: list) -> None:
        self.post = post
        self.refused = refused

    def start(self) -> bytes:
        return self.post

    def on_response(self, status, body, sent_at, now):
        if status != 201:
            self.refused.append(status)
        return None


def post_jobs(posts: list, out_dir: str, n: int) -> float:
    """Whole ``POST /jobs`` against a real gateway child, window 1."""
    from loadgen import LoadGen
    gateway = Gateway(_fresh(os.path.join(out_dir, "ladder.gateway.journal")))
    gateway.spawn()
    try:
        gen = LoadGen(gateway.port, connections=1, window=1)
        refused: list = []
        with KeepAwake():  # window 1 is the purest ping-pong of all
            gen.run(_PostOnly(posts[i % len(posts)], refused)
                    for i in range(n))
        gen.close()
    finally:
        gateway.kill()
    assert not refused, refused[:3]
    return gen.wall_s / n * 1e6


# -- the ladders ------------------------------------------------------------------

def _climb(cells: dict, notes: list) -> dict:
    out = {}
    for name, cell in cells.items():
        try:
            out[f"ladder.{name}_us"] = cell()
        except (ImportError, AttributeError) as exc:
            out[f"ladder.{name}_us"] = 0.0
            notes.append(f"ladder.{name}_us: entry point missing ({exc})")
    return out


def sim_ladder(seed: int, notes: list, scale: float) -> dict:
    """``scale`` shrinks every rung's operation count (miniature runs)."""
    rng = random.Random(seed)

    def rung(cell, n):
        n = max(20, int(n * scale))
        return lambda: _us_per_op(cell(rng, n), n)
    return _climb({
        "engine_event": rung(engine_event, 100_000),
        "store_getput": rung(store_getput, 50_000),
        "net_send": rung(net_send, 30_000),
        "codec_roundtrip": rung(codec_roundtrip, 30_000),
        "endpoint_roundtrip": rung(endpoint_roundtrip, 3_000),
        "driver_roundtrip": rung(driver_roundtrip, 3_000),
        "gossip_round": rung(gossip_round, 300),
        "forecast_update": rung(forecast_update, 20_000),
        "bank_build": rung(bank_build, 5_000),
    }, notes)


def control_ladder(seed: int, out_dir: str, notes: list,
                   scale: float) -> dict:
    rng = random.Random(seed)
    posts = render_posts(seed)
    journal_path = _fresh(os.path.join(out_dir, "ladder.journal"))

    def rung(cell, n, *args):
        n = max(20, int(n * scale))
        return lambda: _us_per_op(cell(*args, n), n)
    return _climb({
        "tcp_echo": rung(tcp_echo, 3_000, rng),
        "http_decode": rung(http_decode, 30_000, posts),
        "route": rung(route, 20_000, posts),
        "journal_append": rung(journal_append, 20_000, posts, journal_path),
        "render": rung(render, 30_000, rng),
        "post_jobs": lambda: post_jobs(posts, out_dir,
                                       max(20, int(3_000 * scale))),
    }, notes)

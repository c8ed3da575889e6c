"""Node construction from the manifest: role wiring and shipped stats,
and the gateway node's HTTP on the node's own path."""

import json
import socket
import time

import pytest

from repro.control import HttpResponseDecoder
from repro.control.http import MAX_BODY_BYTES, MAX_HEADER_BYTES
from repro.core.component import SEGMENT, SetTimer
from repro.core.gossip import GossipServer
from repro.core.services import (
    LoggingServer,
    PersistentStateServer,
    SchedulerServer,
)
from repro.core.linguafranca.messages import Message
from repro.core.telemetry import Telemetry
from repro.live import build_manifest, sc98_topology, serve_topology
from repro.live.node import _bind_driver, build_component, node_stats
from repro.ramsey import RamseyClient


@pytest.fixture
def manifest():
    return build_manifest(sc98_topology(clients=2),
                          collector="127.0.0.1:9999")


def test_roles_build_the_matching_components(manifest):
    assert isinstance(build_component(manifest, "gossip0"), GossipServer)
    assert isinstance(build_component(manifest, "sched0"), SchedulerServer)
    assert isinstance(build_component(manifest, "pst0"), PersistentStateServer)
    assert isinstance(build_component(manifest, "logger0"), LoggingServer)
    assert isinstance(build_component(manifest, "cli0"), RamseyClient)


def test_client_wiring_comes_from_manifest(manifest):
    client = build_component(manifest, "cli0")
    assert client.schedulers == manifest.contacts_for("scheduler")
    assert client.persistent == manifest.contacts_for("persistent")[0]
    assert set(client.gossip_well_known) == set(manifest.contacts_for("gossip"))
    assert client.infra == "live"
    # Distinct seeds per client: the search streams must differ.
    other = build_component(manifest, "cli1")
    assert other.seed != client.seed


def test_gossip_well_known_includes_self(manifest):
    gossip = build_component(manifest, "gossip0")
    assert manifest.contact("gossip0") in gossip.well_known
    assert manifest.contact("gossip1") in gossip.well_known


def test_persistent_node_validates_counter_examples(manifest):
    pst = build_component(manifest, "pst0")
    assert pst._validators  # counter_example_validator installed


def test_node_stats_are_role_specific_and_json_safe(manifest):
    import json

    for name in ("gossip0", "sched0", "pst0", "logger0", "cli0"):
        stats = node_stats(build_component(manifest, name))
        json.dumps(stats)  # must ship inside a COL_REPORT
    sched = node_stats(build_component(manifest, "sched0"))
    assert sched["units_assigned"] == 0 and sched["queue_depth"] == 0
    cli = node_stats(build_component(manifest, "cli0"))
    assert cli["counter_examples_found"] == 0 and cli["unit_id"] is None


def test_unknown_node_rejected(manifest):
    with pytest.raises(KeyError):
        build_component(manifest, "nobody")


# -- the gateway node's HTTP, on the node's own path --------------------------

class LiveGateway:
    """A gateway node in this process: the role's component under the
    node's :class:`NetDriver`, with its HTTP listener, stepped by the
    test instead of a reactor loop."""

    def __init__(self):
        manifest = build_manifest(serve_topology(clients=1),
                                  collector="127.0.0.1:9")
        self.component = build_component(manifest, "gw0")
        self.driver = _bind_driver(self.component, "127.0.0.1", 0,
                                   Telemetry(), 0.0, stream="127.0.0.1:0")
        self.address = self.driver.streams.address

    def connect(self):
        sock = socket.create_connection(self.address)
        sock.setblocking(False)
        return sock

    def parked(self) -> int:
        return sum(conn.parked is not None
                   for conn in self.component.conns.values())

    def step_until(self, done, budget=3.0):
        deadline = time.monotonic() + budget
        while not done() and time.monotonic() < deadline:
            self.driver.step(0.002)
        assert done()

    def read(self, sock, want, budget=3.0, meanwhile=None):
        """Step the node until ``want`` responses came back on ``sock``
        or it closed; returns ``([(seconds, status, headers, body)],
        closed)``. ``meanwhile`` runs once, when a request is parked."""
        decoder = HttpResponseDecoder()
        got, closed, t0 = [], False, time.monotonic()
        while len(got) < want and time.monotonic() - t0 < budget:
            self.driver.step(0.002)
            if meanwhile is not None and self.parked():
                meanwhile, run = None, meanwhile
                run()
            try:
                chunk = sock.recv(65536)
            except BlockingIOError:
                continue
            if not chunk:
                closed = True
                break
            decoder.feed(chunk)
            got += [(time.monotonic() - t0, *response)
                    for response in iter(decoder.next_response, None)]
        return got, closed

    def submit(self):
        """``POST /jobs`` on a connection of its own; the new job's id."""
        sock = self.connect()
        try:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: 2\r\n\r\n{}")
            ((_, status, _, body),), _ = self.read(sock, 1)
        finally:
            sock.close()
        assert status == 201
        return json.loads(body)["id"]

    def close(self):
        self.driver.shutdown()


@pytest.fixture
def gateway():
    node = LiveGateway()
    yield node
    node.close()


def _read_events(gateway, since, wait, meanwhile=None):
    """One ``GET /events`` on a fresh connection; (seconds, body)."""
    sock = gateway.connect()
    try:
        sock.sendall(f"GET /events?since={since}&wait={wait} HTTP/1.1\r\n"
                     f"Host: t\r\nConnection: close\r\n\r\n".encode())
        ((took, status, _, body),), _ = gateway.read(sock, 1,
                                                    meanwhile=meanwhile)
    finally:
        sock.close()
    assert status == 200
    return took, body


def test_long_poll_parks_until_an_event_or_the_deadline(gateway):
    gateway.submit()
    took, body = _read_events(gateway, since=0, wait=0.3)
    assert body == b"" and 0.25 <= took < 1.5       # the deadline
    took, body = _read_events(gateway, since=0, wait=30,
                              meanwhile=gateway.submit)
    assert b'"job":"gw0-job-2"' in body and took < 1.5   # the event


def test_long_poll_answers_a_cursor_from_a_previous_incarnation_at_once(
        gateway):
    """A reborn gateway numbers its feed from 0. The consumer's cursor
    (5,000) is beyond the log: that is not "nothing new, park" — it used
    to hold every such read until its deadline."""
    gateway.submit()
    took, body = _read_events(gateway, since=5000, wait=30)
    assert b'"job":"gw0-job-1"' in body and b'"seq":0' in body
    assert took < 1.5


def test_a_request_pipelined_behind_a_long_poll_is_answered_after_it(
        gateway):
    """HTTP/1.1 answers in request order: a ``/health`` that arrives
    while the ``/events`` ahead of it on its connection is parked waits
    for it."""
    sock = gateway.connect()
    try:
        sock.sendall(b"GET /events?since=-1&wait=1 HTTP/1.1\r\nHost: t\r\n"
                     b"\r\n")
        got, closed = gateway.read(sock, 2, meanwhile=lambda: sock.sendall(
            b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n"))
    finally:
        sock.close()
    assert not closed
    (t_events, *events), (t_health, *health) = got
    assert events[1]["content-type"] == "application/x-ndjson"
    assert events[:3:2] == [200, b""]
    assert health[0] == 200 and json.loads(health[2])["ok"] is True
    assert 0.9 <= t_events <= t_health


def test_a_hang_up_frees_the_connection_and_its_parked_request(gateway):
    """Every closed socket's state goes, parked long-poll included: the
    peer's EOF reaches the component as a FIN segment."""
    for _ in range(200):
        sock = gateway.connect()
        sock.sendall(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
        ((_, status, _, _),), _ = gateway.read(sock, 1)
        assert status == 200
        sock.close()
    for _ in range(20):
        sock = gateway.connect()
        sock.sendall(b"GET /events?since=-1&wait=30 HTTP/1.1\r\n"
                     b"Host: t\r\n\r\n")
        deadline = time.monotonic() + 3.0   # this one parked, the last gone
        while gateway.parked() != 1 and time.monotonic() < deadline:
            gateway.driver.step(0.002)
        assert gateway.parked() == 1
        sock.close()
    deadline = time.monotonic() + 3.0
    while gateway.component.conns and time.monotonic() < deadline:
        gateway.driver.step(0.002)
    assert gateway.component.conns == {} and gateway.parked() == 0
    assert gateway.component.parked == {}


def test_a_parked_long_poll_arms_one_wake_up_not_one_per_hook(gateway):
    """The component re-offers parked requests on every hook, but arms
    ``gw:parked`` only when the first deadline moves."""
    effects = []
    on_message = gateway.component.on_message

    def spy(message, now):
        out = on_message(message, now)
        effects.extend(out)
        return out

    gateway.component.on_message = spy
    sock = gateway.connect()
    try:
        sock.sendall(b"GET /events?since=-1&wait=30 HTTP/1.1\r\n"
                     b"Host: t\r\n\r\n")
        gateway.step_until(lambda: gateway.parked() == 1)
        for _ in range(20):
            other = gateway.connect()
            other.sendall(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
            ((_, status, _, _),), _ = gateway.read(other, 1)
            other.close()
            assert status == 200
        wakes = [effect for effect in effects
                 if isinstance(effect, SetTimer) and effect.key == "gw:parked"]
        assert len(wakes) == 1 and gateway.parked() == 1
    finally:
        sock.close()


def test_bytes_pipelined_past_the_bounds_behind_a_long_poll_fail_it(gateway):
    """Nothing drains a connection's decoder while its request is
    parked. Past one request's bounds the parked request is answered
    400 at once and the connection closes: a client cannot make the node
    buffer without limit for the length of a long-poll."""
    cap = MAX_HEADER_BYTES + MAX_BODY_BYTES
    health = b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n"
    data = (health * (cap // len(health) + 1))[:cap + 1]
    sock = gateway.connect()
    try:
        sock.sendall(b"GET /events?since=-1&wait=30 HTTP/1.1\r\n"
                     b"Host: t\r\n\r\n")
        gateway.step_until(lambda: gateway.parked() == 1)
        sent, peak, deadline = 0, 0, time.monotonic() + 3.0
        while sent < len(data) and time.monotonic() < deadline:
            try:
                sent += sock.send(data[sent:])
            except BlockingIOError:
                pass
            gateway.driver.step(0.002)
            peak = max([peak] + [conn.decoder.buffered() for conn
                                 in gateway.component.conns.values()])
        assert sent == len(data)
        got, _ = gateway.read(sock, 1)
        rest, closed = gateway.read(sock, 1)
    finally:
        sock.close()
    ((_, status, _, body),) = got
    assert status == 400 and b"parked" in body
    assert rest == [] and closed
    assert peak <= cap and gateway.component.conns == {}


def test_a_world_port_frame_cannot_pose_as_a_stream_peer(gateway):
    """Only the stream listener speaks for a ``stream:N`` contact. A
    lingua-franca frame claiming one - a hello the scheduler would
    answer down a user's HTTP socket, a request or a FIN injected into
    that user's connection - is dropped and counted, and so is a frame
    whose sender is not a contact at all; the node serves on."""
    user = gateway.connect()
    try:
        user.sendall(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
        ((_, status, _, _),), _ = gateway.read(user, 1)
        assert status == 200
        (peer,) = gateway.component.conns
        host, _, port = gateway.driver.contact.rpartition(":")
        with socket.create_connection((host, int(port))) as forger:
            forger.sendall(b"".join(message.encode() for message in (
                Message("SCH_HELLO", peer, {"infra": "forged"}),
                Message(SEGMENT, peer,
                        {"d": "GET /health HTTP/1.1\r\n\r\n"}),
                Message(SEGMENT, peer, {"d": "", "fin": True}),
                Message("SCH_HELLO", 5, {}))))
            gateway.step_until(lambda: gateway.driver.impostors == 3
                               and gateway.driver.server.decode_errors == 1)
        for _ in range(20):
            gateway.driver.step(0.002)
        with pytest.raises(BlockingIOError):   # nothing was answered
            user.recv(65536)
        assert gateway.component.clients == {}
        assert peer in gateway.component.conns
        user.sendall(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
        ((_, status, _, _),), closed = gateway.read(user, 1)
        assert status == 200 and not closed
        assert gateway.driver.send_errors == 0
    finally:
        user.close()

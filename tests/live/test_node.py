"""Node construction from the manifest: role wiring and shipped stats."""

import pytest

from repro.core.gossip import GossipServer
from repro.core.services import (
    LoggingServer,
    PersistentStateServer,
    SchedulerServer,
)
from repro.live import build_manifest, sc98_topology
from repro.live.node import build_component, node_stats
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


# -- the gateway node's /events long-poll ------------------------------------

def _long_poll_world():
    """`_attach_gateway` over a stand-in driver: the real HttpServer, the
    real router, the real park/answer decision, no node process."""
    import time
    from types import SimpleNamespace

    from repro.control import WorkQueue
    from repro.core.telemetry import Telemetry
    from repro.live.node import _attach_gateway

    driver = SimpleNamespace(
        component=SimpleNamespace(work=WorkQueue(prefix="t")),
        telemetry=Telemetry(), loop=None, drain_hooks=[],
        now=time.monotonic)
    manifest = SimpleNamespace(http_contact=lambda name: "127.0.0.1:0")
    server = _attach_gateway(driver, manifest, "gw0")
    return driver.component.work, server


def _read_events(server, since, wait, budget, meanwhile=None):
    """One raw `GET /events` against ``server``; returns (seconds until
    the response arrived, body), stepping the reactor as a node would."""
    import socket
    import time

    sock = socket.create_connection(server.address)
    sock.setblocking(False)
    sock.sendall(f"GET /events?since={since}&wait={wait} HTTP/1.1\r\n"
                 f"Host: t\r\nConnection: close\r\n\r\n".encode())
    t0, data = time.monotonic(), b""
    try:
        while time.monotonic() - t0 < budget:
            server.step(0.005)
            server.poll_parked()
            if meanwhile is not None and server.parked:
                meanwhile()
                meanwhile = None
            try:
                chunk = sock.recv(65536)
            except BlockingIOError:
                continue
            if not chunk:
                break
            data += chunk
        return time.monotonic() - t0, data.partition(b"\r\n\r\n")[2]
    finally:
        sock.close()


def test_long_poll_parks_until_an_event_or_the_deadline():
    work, server = _long_poll_world()
    try:
        work.submit({}, now=0.0)
        took, body = _read_events(server, since=0, wait=0.3, budget=3.0)
        assert body == b"" and 0.25 <= took < 1.5      # the deadline
        took, body = _read_events(
            server, since=0, wait=30, budget=3.0,
            meanwhile=lambda: work.submit({}, now=1.0))
        assert b'"job":"t-2"' in body and took < 1.5   # the event
    finally:
        server.close()


def test_long_poll_answers_a_cursor_from_a_previous_incarnation_at_once():
    """A reborn gateway numbers its feed from 0. The consumer's cursor
    (5,000) is beyond the log: that is not "nothing new, park" — it used
    to hold every such read until its deadline."""
    work, server = _long_poll_world()
    try:
        work.submit({}, now=0.0)
        took, body = _read_events(server, since=5000, wait=30, budget=3.0)
        assert b'"job":"t-1"' in body and b'"seq":0' in body
        assert took < 1.5
    finally:
        server.close()

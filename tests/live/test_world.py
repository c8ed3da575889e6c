"""The live world lifecycle, driven directly — no OS processes.

:class:`~repro.live.harness.LiveWorld` is what ``repro live``, ``repro
serve`` and ``repro explore`` all run on; the slow live-world tests reach
it only through real processes. Here a stub supervisor (fake clock that
advances one tick per ``poll``) and a stub collector stand in, so the
kill schedule, the 1 Hz health check, the respawn wait and the cleanup
guarantees are each pinned in milliseconds.
"""

import os
from types import SimpleNamespace

import pytest

from repro.live import harness
from repro.live.harness import LiveWorld
from repro.live.ports import PortAllocator
from repro.live.topology import serve_topology

TICK = 0.25


class StubCollector:
    contact = "127.0.0.1:1"

    def __init__(self, host="127.0.0.1"):
        self.nodes = {}
        self.closed = False
        made.append(self)

    def step(self, timeout=0.0):
        return 0

    def close(self):
        self.closed = True


class StubSupervisor:
    def __init__(self, manifest, manifest_path, deadline, collector=None,
                 restart=None, log_dir=None):
        self.manifest_path = manifest_path
        self.deadline = deadline
        self.nodes = {spec.name: SimpleNamespace(state="running")
                      for spec in manifest.topology.nodes}
        self.clock = 0.0
        self.spawned = False
        self.kills = []
        self.health_checks = []
        self.drains = []
        #: name -> fake-clock time its pending respawn completes.
        self.respawn_at = {}
        made.append(self)

    def now(self):
        return self.clock

    def spawn_all(self):
        self.spawned = True

    def poll(self):
        self.clock += TICK
        for name, at in list(self.respawn_at.items()):
            if self.clock >= at:
                self.nodes[name].state = "running"
                del self.respawn_at[name]

    def check_health(self):
        self.health_checks.append(self.clock)
        return []

    def kill(self, name):
        self.kills.append((name, self.clock))
        return 4242

    def alive_count(self):
        return 0 if self.drains else len(self.nodes)

    def drain(self, grace=6.0, pump=None):
        self.drains.append({
            "grace": grace,
            "states": {n: node.state for n, node in self.nodes.items()}})

    def statuses(self):
        return {name: {"state": node.state, "restarts": 0}
                for name, node in self.nodes.items()}


class SpyAllocator(PortAllocator):
    def __init__(self, host="127.0.0.1"):
        super().__init__(host)
        made.append(self)


made = []


@pytest.fixture()
def stubs(monkeypatch):
    del made[:]
    monkeypatch.setattr(harness, "Collector", StubCollector)
    monkeypatch.setattr(harness, "Supervisor", StubSupervisor)
    monkeypatch.setattr(harness, "PortAllocator", SpyAllocator)
    return made


def _topology():
    return serve_topology(clients=2)


def _released(stubs):
    """Everything the world acquired has been given back."""
    collector, allocator = stubs[0], stubs[1]
    return collector.closed and allocator._held == []


def test_kill_fires_exactly_once_at_kill_at(stubs):
    said = []
    with LiveWorld(_topology(), duration=10.0, kill_at=3.0,
                   progress=said.append) as world:
        assert world.supervisor.spawned
        assert world.kill_node == "cli0"         # first victim_role node
        while world.supervisor.now() < 10.0:
            world.pump()
        assert world.supervisor.kills == [("cli0", 3.0)]
        assert world.chaos == [{"t": 3.0, "node": "cli0", "pid": 4242}]
    assert [line for line in said if line.startswith("chaos:")] == [
        "chaos: killed cli0 (pid 4242) at t=3.0s"]


def test_victim_defaults_to_the_first_node_of_the_harness_role(stubs):
    with LiveWorld(_topology(), duration=4.0, kill_at=1.0,
                   victim_role="gateway") as world:
        while world.supervisor.now() < 4.0:
            world.pump()
        assert world.supervisor.kills == [("gw0", 1.0)]


def test_kill_outside_the_run_window_never_fires(stubs):
    with LiveWorld(_topology(), duration=2.0, grace=30.0,
                   kill_at=5.0) as world:
        while world.supervisor.now() < 8.0:
            world.pump()
        assert world.supervisor.kills == [] and world.chaos == []


def test_no_kill_without_kill_at(stubs):
    with LiveWorld(_topology(), duration=3.0) as world:
        while world.supervisor.now() < 3.0:
            world.pump()
        assert world.supervisor.kills == []


def test_unknown_kill_node_raises_before_anything_is_acquired(stubs):
    with pytest.raises(ValueError, match="nobody"):
        LiveWorld(_topology(), duration=5.0, kill_at=1.0, kill_node="nobody")
    assert stubs == []                           # nothing built, nothing spawned


def test_health_checks_run_at_one_hertz(stubs):
    with LiveWorld(_topology(), duration=6.0) as world:
        while world.supervisor.now() < 6.0:
            world.pump()
        checks = world.supervisor.health_checks
    assert checks == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_exception_mid_run_still_cleans_up(stubs):
    with pytest.raises(RuntimeError, match="boom"):
        with LiveWorld(_topology(), duration=5.0) as world:
            run_dir = os.path.dirname(world.manifest_path)
            assert os.path.exists(world.manifest_path)
            world.pump()
            raise RuntimeError("boom")
    assert _released(stubs)
    assert not os.path.exists(run_dir)           # the temp dir is gone
    # ...and whatever was still running was put down, without grace.
    assert [d["grace"] for d in world.supervisor.drains] == [0.0]


def test_failure_while_spawning_cleans_up(stubs, monkeypatch):
    def explode(self):
        raise OSError("cannot fork")
    monkeypatch.setattr(StubSupervisor, "spawn_all", explode)
    with pytest.raises(OSError, match="cannot fork"):
        LiveWorld(_topology(), duration=5.0)
    assert _released(stubs)
    supervisor = stubs[2]
    assert not os.path.exists(os.path.dirname(supervisor.manifest_path))


def test_out_directory_is_kept(stubs, tmp_path):
    out = tmp_path / "run"
    with LiveWorld(_topology(), duration=1.0, out=str(out)) as world:
        assert world.manifest_path == str(out / "manifest.json")
    assert (out / "manifest.json").exists() and _released(stubs)


def test_drain_waits_for_a_pending_respawn(stubs):
    """ISSUE 21 regression: ``run_serve`` drained a world whose killed
    client was still in restart backoff, ``Supervisor.drain`` cancelled
    the respawn, and the report said "killed but never restarted". The
    wait is the lifecycle's, so every harness has it."""
    with LiveWorld(_topology(), duration=4.0, grace=30.0) as world:
        supervisor = world.supervisor
        while supervisor.now() < 4.0:
            world.pump()
        supervisor.nodes["cli0"].state = "backoff"
        supervisor.respawn_at["cli0"] = 9.0
        nodes = world.drain()
    (drain,) = supervisor.drains
    assert drain["states"]["cli0"] == "running"  # back before the SIGTERMs
    assert supervisor.now() >= 9.0
    assert nodes["cli0"]["role"] == "client"
    assert set(nodes) == {spec.name for spec in _topology().nodes}


def test_respawn_wait_is_bounded_by_the_nodes_deadline(stubs):
    with LiveWorld(_topology(), duration=2.0, grace=3.0) as world:
        supervisor = world.supervisor
        supervisor.nodes["cli0"].state = "backoff"  # never comes back
        world.drain()
    assert 5.0 <= supervisor.now() < 5.0 + 40 * TICK
    assert supervisor.drains[0]["states"]["cli0"] == "backoff"

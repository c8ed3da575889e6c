"""Process supervision for live worlds.

The :class:`Supervisor` owns the OS-process side of the deployment
plane: it spawns one ``repro live-node`` process per manifest entry,
watches for exits, restarts crashed nodes under a bounded-backoff
:class:`RestartPolicy` (fresh incarnation number, so tracer id spaces
and collector sequence spaces never collide), exposes the chaos knob
(:meth:`kill`) the harness uses to demonstrate recovery on real
sockets, and drains the world gracefully — SIGTERM first so every node
flushes a final telemetry report, SIGKILL only for stragglers.

Health checking rides the collector's forecast-driven liveness test
(§2.2): :meth:`check_health` asks the collector which nodes have been
silent longer than their *forecast* report gap allows, and (optionally)
treats a live-but-silent process as crashed.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import IO, Optional

from ..obs.flight import flight_path, load_flight
from .collector import Collector
from .topology import Manifest

__all__ = ["RestartPolicy", "Supervisor", "ManagedNode"]


@dataclass(frozen=True)
class RestartPolicy:
    """Bounded restarts with multiplicative backoff.

    The default first-restart backoff deliberately exceeds the
    schedulers' reap deadline (``dead_factor * report_period``, 2s at
    the default topology settings): a crashed client must be declared
    dead — its unit requeued — *before* its replacement reappears at
    the same contact, or the hello would silently adopt the orphan.
    """

    max_restarts: int = 3
    backoff: float = 3.0
    backoff_factor: float = 1.5
    backoff_cap: float = 10.0

    def delay(self, restarts_so_far: int) -> float:
        """Seconds to wait before restart number ``restarts_so_far + 1``."""
        return min(self.backoff * (self.backoff_factor ** restarts_so_far),
                   self.backoff_cap)


@dataclass
class ManagedNode:
    """Supervisor-side state for one manifest entry."""

    name: str
    proc: Optional[subprocess.Popen] = None
    log: Optional[IO[bytes]] = None
    incarnation: int = 0
    restarts: int = 0
    spawns: int = 0
    kills: int = 0
    #: Supervisor-clock time a pending restart fires (None = not pending).
    restart_at: Optional[float] = None
    exit_codes: list[int] = field(default_factory=list)
    state: str = "new"  # new | running | backoff | stopped | failed
    #: Incarnations whose flight-recorder spool was recovered post-mortem.
    flights_recovered: list[int] = field(default_factory=list)

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class Supervisor:
    """Spawns and supervises one process per node in the manifest."""

    def __init__(
        self,
        manifest: Manifest,
        manifest_path: str,
        deadline: float,
        collector: Optional[Collector] = None,
        restart: Optional[RestartPolicy] = None,
        log_dir: Optional[str] = None,
        python: Optional[str] = None,
    ) -> None:
        self.manifest = manifest
        self.manifest_path = manifest_path
        self.collector = collector
        self.restart = restart if restart is not None else RestartPolicy()
        self.log_dir = log_dir
        self.python = python or sys.executable
        self._t0 = time.monotonic()
        #: Supervisor-clock time the whole world should be gone.
        self.deadline = deadline
        self.nodes: dict[str, ManagedNode] = {
            spec.name: ManagedNode(name=spec.name)
            for spec in manifest.topology.nodes
        }
        self.draining = False
        #: Nodes the forecast-driven health check flagged while their
        #: process was still alive (name -> count).
        self.suspicions: dict[str, int] = {}
        #: Where dead incarnations' flight-recorder dumps go: defaults to
        #: the collector's :meth:`~.collector.Collector.ingest_flight`,
        #: replaceable for tests. ``None`` disables recovery.
        self.flight_sink = (collector.ingest_flight
                            if collector is not None else None)
        #: Nodes' data dir (flight spools live beside the manifest, the
        #: same convention run_node uses for journals).
        self._data_dir = os.path.dirname(os.path.abspath(manifest_path))

    def now(self) -> float:
        return time.monotonic() - self._t0

    # -- spawning ------------------------------------------------------------
    def _child_env(self) -> dict[str, str]:
        env = dict(os.environ)
        # Children must import the same `repro` this supervisor runs.
        pkg_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        prior = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (pkg_root + os.pathsep + prior
                             if prior else pkg_root)
        return env

    def _open_log(self, node: ManagedNode) -> int | IO[bytes]:
        if self.log_dir is None:
            return subprocess.DEVNULL
        os.makedirs(self.log_dir, exist_ok=True)
        path = os.path.join(self.log_dir,
                            f"{node.name}.{node.incarnation}.log")
        node.log = open(path, "wb")
        return node.log

    def spawn(self, name: str) -> ManagedNode:
        """Start (or restart) the process for ``name``."""
        node = self.nodes[name]
        remaining = max(self.deadline - self.now(), 0.5)
        cmd = [
            self.python, "-m", "repro", "live-node",
            "--manifest", self.manifest_path,
            "--node", name,
            "--deadline", f"{remaining:.3f}",
            "--incarnation", str(node.incarnation),
        ]
        log = self._open_log(node)
        node.proc = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=self._child_env())
        node.spawns += 1
        node.restart_at = None
        node.state = "running"
        return node

    def spawn_all(self) -> None:
        """Stand up the whole world (manifest order: services before
        clients — :func:`~.topology.sc98_topology` lists them that way,
        though clients retry hellos and would survive any order)."""
        for spec in self.manifest.topology.nodes:
            self.spawn(spec.name)

    # -- supervision ---------------------------------------------------------
    def poll(self) -> None:
        """One supervision turn: reap exits, schedule/execute restarts."""
        now = self.now()
        for node in self.nodes.values():
            if node.proc is not None and node.proc.poll() is not None:
                node.exit_codes.append(node.proc.returncode)
                node.proc = None
                if node.log is not None:
                    node.log.close()
                    node.log = None
                self._recover_flight(node)
                if self.draining or now >= self.deadline:
                    node.state = "stopped"
                elif node.restarts < self.restart.max_restarts:
                    node.restart_at = now + self.restart.delay(node.restarts)
                    node.state = "backoff"
                else:
                    node.state = "failed"
            if (node.restart_at is not None and now >= node.restart_at
                    and not self.draining):
                node.incarnation += 1
                node.restarts += 1
                self.spawn(node.name)

    def _recover_flight(self, node: ManagedNode) -> None:
        """Post-mortem: pull the reaped incarnation's flight-recorder
        spool off disk and hand it to the sink (collector). A SIGKILLed
        process never got to flush its final telemetry report — the
        spool is where its last moments live. Idempotent downstream
        (the collector dedups by span id), so recovering a *graceful*
        exit's spool is harmless."""
        if self.flight_sink is None:
            return
        if node.incarnation in node.flights_recovered:
            return
        try:
            dump = load_flight(flight_path(self._data_dir, node.name,
                                           node.incarnation))
            if dump is None:
                return
            node.flights_recovered.append(node.incarnation)
            self.flight_sink(dump)
        except Exception:
            pass  # recovery must never take the supervisor down

    def check_health(self, restart_silent: bool = False, **forecast_kw) -> list[str]:
        """Forecast-driven liveness sweep (needs a collector).

        Returns the nodes whose silence exceeds their forecast report
        gap *while their process is still alive* — a hung node, not a
        crashed one (crashes are caught by :meth:`poll`). With
        ``restart_silent`` the supervisor treats them as dead: kill,
        then let :meth:`poll` restart under the normal policy.
        """
        if self.collector is None:
            return []
        hung = [name for name in self.collector.silent_nodes(**forecast_kw)
                if name in self.nodes and self.nodes[name].alive()]
        for name in hung:
            self.suspicions[name] = self.suspicions.get(name, 0) + 1
            if restart_silent:
                self.kill(name)
        return hung

    def kill(self, name: str) -> Optional[int]:
        """Chaos knob: SIGKILL a node's process (no drain, no warning —
        the moral equivalent of an SC98 machine dropping off the Grid).
        Returns the pid killed, or None if it was not running."""
        node = self.nodes[name]
        if not node.alive():
            return None
        pid = node.proc.pid
        node.kills += 1
        try:
            node.proc.kill()
        except OSError:
            return None
        return pid

    def alive_count(self) -> int:
        return sum(1 for node in self.nodes.values() if node.alive())

    # -- shutdown ------------------------------------------------------------
    def drain(self, grace: float = 6.0, pump=None, poll_period: float = 0.05) -> None:
        """Graceful world shutdown.

        SIGTERM every live node (their drivers turn it into a reactor
        stop + final telemetry flush), keep pumping ``pump`` (the
        collector's reactor, so those final reports actually land) until
        everyone exits or ``grace`` runs out, then SIGKILL stragglers.
        """
        self.draining = True
        for node in self.nodes.values():
            node.restart_at = None
            if node.alive():
                try:
                    node.proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        end = self.now() + grace
        while self.alive_count() and self.now() < end:
            if pump is not None:
                pump()
            else:
                time.sleep(poll_period)
            self.poll()
        for node in self.nodes.values():
            if node.alive():
                try:
                    node.proc.kill()
                    node.proc.wait(timeout=5.0)
                except (OSError, subprocess.TimeoutExpired):
                    pass
        self.poll()

    def statuses(self) -> dict[str, dict]:
        """JSON-safe per-node supervision summary for the report."""
        out = {}
        for name in sorted(self.nodes):
            node = self.nodes[name]
            out[name] = {
                "state": node.state,
                "incarnation": node.incarnation,
                "spawns": node.spawns,
                "restarts": node.restarts,
                "kills": node.kills,
                "exit_codes": list(node.exit_codes),
                "suspicions": self.suspicions.get(name, 0),
                "flights_recovered": list(node.flights_recovered),
            }
        return out

"""The ``repro live-node`` entrypoint: one world process.

A node process is the thinnest possible wrapper around the sans-IO
programming model: read the manifest, build this node's :class:`Component`
exactly as the simulation's scenario builder would (same classes, same
wiring — only the contact strings are ``host:port`` now), run it under
:class:`~repro.core.netdriver.NetDriver` on the preallocated port, and
piggyback a heartbeat shipper and a flight recorder on the driver's
reactor loop (a gateway's driver also listens on its HTTP address).
SIGTERM from the supervisor turns into a graceful drain: the reactor
stops at the next turn, drain hooks send one final ``COL_REPORT``, seal
the spool and close a gateway's journal, and the sockets close.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict
from typing import Callable, NamedTuple, Optional

from ..core.component import Component
from ..core.linguafranca.messages import Message
from ..core.netdriver import NetDriver
from ..core.telemetry import Telemetry
# The id-partition constants live with the span-origin decoder so trace
# tooling and the nodes that mint the ids can never drift apart.
from ..obs.jobtrace import ID_BLOCK, MAX_INCARNATIONS
from ..obs.flight import FlightRecorder, flight_path
from .collector import COL_HELLO, COL_REPORT
from .topology import (GOSSIP_POLL_PERIOD, GOSSIP_SYNC_PERIOD, HELLO_RETRY,
                       REPORT_PERIOD, SHIP_PERIOD, UNIT_OPS_BUDGET,
                       WORK_PERIOD, Manifest)

__all__ = ["build_component", "run_node", "node_stats",
           "ID_BLOCK", "MAX_INCARNATIONS"]


# -- one builder and one stats reader per role --------------------------------
# A builder is ``(manifest, name, index, options, data_dir) -> Component``
# and imports only its own classes, so a node process loads the code of
# its role and no other: a gateway never imports the Ramsey application,
# numpy, or the gossip stack (DESIGN §11).

def _build_gossip(manifest, name, idx, opts, data_dir):
    from ..core.gossip.server import GossipServer
    from ..core.gossip.state import ComparatorRegistry
    from ..ramsey.client import RAMSEY_BEST, ramsey_comparator

    comparators = ComparatorRegistry()
    comparators.register(RAMSEY_BEST, ramsey_comparator)
    return GossipServer(
        name,
        well_known=manifest.contacts_for("gossip"),
        comparators=comparators,
        poll_period=GOSSIP_POLL_PERIOD,
        sync_period=GOSSIP_SYNC_PERIOD,
    )


def _build_scheduler(manifest, name, idx, opts, data_dir):
    from ..core.services.scheduler import QueueWorkSource, SchedulerServer
    from ..ramsey.tasks import unit_generator

    topo = manifest.topology
    sched_rank = [s.name for s in topo.by_role("scheduler")].index(name)
    # Reap checks every report period: with wall-clock restarts the
    # reap-the-dead-client deadline races the supervisor's restart
    # backoff, and a coarse reap tick would let the restarted client's
    # hello win and silently resume the orphaned unit.
    return SchedulerServer(name, QueueWorkSource(generator=unit_generator(
        int(opts.get("k", topo.k)), topo.n,
        base_seed=topo.seed + 1000 * (sched_rank + 1),
        ops_budget=UNIT_OPS_BUDGET)), report_period=REPORT_PERIOD,
        reap_period=REPORT_PERIOD)


def _build_gateway(manifest, name, idx, opts, data_dir):
    from ..control.component import GatewayComponent
    from ..control.workqueue import FileJournal

    # The twin's gateway on the node's journal, which (replayed in the
    # constructor) is what makes a SIGKILL lose no accepted job.
    journal = None
    if data_dir is not None:
        journal = FileJournal(os.path.join(data_dir, f"{name}.journal.jsonl"))
    return GatewayComponent(name, journal)


def _build_persistent(manifest, name, idx, opts, data_dir):
    from ..core.services.persistent import (DirectoryBackend,
                                            PersistentStateServer)
    from ..ramsey.verify import counter_example_validator

    backend_dir = opts.get("backend_dir")
    backend = DirectoryBackend(str(backend_dir)) if backend_dir else None
    pst = PersistentStateServer(name, backend=backend)
    pst.add_validator(counter_example_validator)
    return pst


def _build_logger(manifest, name, idx, opts, data_dir):
    from ..core.services.logging import LoggingServer

    return LoggingServer(name)


def _build_client(manifest, name, idx, opts, data_dir):
    from ..core.services.kinds import KindEngine
    from ..ramsey.client import RamseyClient, RealEngine, rotated

    topo = manifest.topology
    # Clients execute whichever app kind the scheduler hands them: the
    # KindEngine dispatches per-unit (ramsey units to the tuned
    # RealEngine below; explore.*, pet.* and gnet.* units to the engine
    # the default kind registry builds on first lookup).
    client = RamseyClient(
        name=name,
        schedulers=rotated(manifest.contacts_for("scheduler")
                           + manifest.contacts_for("gateway"), idx),
        engine=KindEngine(engines={"ramsey": RealEngine(
            max_steps_per_advance=int(
                opts.get("max_steps_per_advance", 2000)))}),
        infra=str(opts.get("infra", "live")),
        loggers=rotated(manifest.contacts_for("logger"), idx)[:1],
        persistent=(manifest.contacts_for("persistent") or [None])[0],
        gossip_well_known=manifest.contacts_for("gossip"),
        work_period=WORK_PERIOD,
        report_period=REPORT_PERIOD,
        hello_retry=HELLO_RETRY,
        seed=topo.seed + idx,
    )
    client.site = str(opts.get("site", ""))
    return client


def _scheduler_stats(sched) -> dict:
    stats = asdict(sched.stats)
    stats["active_clients"] = len(sched.clients)
    stats["queue_depth"] = len(sched.work)
    if hasattr(sched.work, "stats"):  # a gateway's WorkQueue meters jobs
        stats["jobs"] = sched.work.stats()
    return stats


def _persistent_stats(pst) -> dict:
    return {**asdict(pst.stats), "keys": pst.backend.keys()}


def _gossip_stats(gossip) -> dict:
    stats = asdict(gossip.stats)
    stats["registered"] = len(gossip.registry)
    if gossip.clique is not None:
        stats["clique_size"] = len(gossip.pool_members())
    return stats


def _client_stats(client) -> dict:
    return {
        "counter_examples_found": client.counter_examples_found,
        "checkpoint_acks": client.checkpoint_acks,
        "checkpoint_denials": client.checkpoint_denials,
        "checkpoint_give_ups": client.checkpoint_give_ups,
        "unit_id": client.unit.get("id") if client.unit else None,
        "site": client.site,
        "total_ops": client._total_ops,
        "units_done": client.units_done,
    }


class _Role(NamedTuple):
    build: Callable[..., Component]
    #: The class ``build`` returns, by name: :func:`node_stats` finds a
    #: component's role by it, so reading stats imports nothing.
    component: str
    stats: Callable[[Component], dict]


_ROLES = {
    "gossip": _Role(_build_gossip, "GossipServer", _gossip_stats),
    "scheduler": _Role(_build_scheduler, "SchedulerServer", _scheduler_stats),
    "gateway": _Role(_build_gateway, "GatewayComponent", _scheduler_stats),
    "persistent": _Role(_build_persistent, "PersistentStateServer",
                        _persistent_stats),
    "logger": _Role(_build_logger, "LoggingServer",
                    lambda logger: {"records": len(logger.records)}),
    "client": _Role(_build_client, "RamseyClient", _client_stats),
}


def build_component(manifest: Manifest, name: str,
                    data_dir: Optional[str] = None) -> Component:
    """Build the sans-IO component for node ``name`` from the manifest.

    The same classes the simulation deploys (`sc98.build_core` /
    `model_client_factory`), wired with live ``host:port`` contacts.
    ``data_dir`` is where durable node state lives (the gateway's job
    journal); without it a gateway runs journal-less, losing accepted
    jobs on restart — fine for unit tests, never for ``repro serve``.
    """
    topo = manifest.topology
    spec = topo.named(name)
    role = _ROLES.get(spec.role)
    if role is None:
        raise ValueError(f"unknown node role {spec.role!r}")
    return role.build(manifest, name, topo.index_of(name), spec.options,
                      data_dir)


def node_stats(component: Component) -> dict:
    """Role-specific stats shipped in each ``COL_REPORT`` (JSON-safe)."""
    classes = {cls.__name__ for cls in type(component).__mro__}
    for role in _ROLES.values():
        if role.component in classes:
            return role.stats(component)
    return {}


class _Shipper:
    """Heartbeats the collector: metrics, stats and driver counters in a
    ``COL_REPORT`` per ship period (tick hook) and a final one on drain
    (drain hook). Spans and logs travel in the flight spool instead."""

    def __init__(self, driver: NetDriver, manifest: Manifest, name: str,
                 incarnation: int) -> None:
        self.driver = driver
        self.name = name
        self.incarnation = incarnation
        host, _, port = manifest.collector.rpartition(":")
        self._col = (host, int(port)) if host and port else None
        self.seq = 0
        self._last_ship = driver.now()

    # -- driver hooks --------------------------------------------------------
    def tick(self) -> None:
        if self.driver.now() - self._last_ship >= SHIP_PERIOD:
            self.ship()

    def drain(self) -> None:
        self.ship(final=True)

    # -- shipping ------------------------------------------------------------
    def hello(self) -> None:
        self._send(COL_HELLO, {
            "node": self.name,
            "pid": os.getpid(),
            "incarnation": self.incarnation,
        })

    def ship(self, final: bool = False) -> None:
        self._last_ship = self.driver.now()
        self.seq += 1
        body = {
            "node": self.name,
            "seq": self.seq,
            "incarnation": self.incarnation,
            "metrics": self.driver.telemetry.snapshot(),
            "stats": node_stats(self.driver.component),
            "driver": {
                "send_errors": self.driver.send_errors,
                "handler_errors": self.driver.handler_errors,
                "reconnects": self.driver.reconnects,
            },
        }
        if final:
            body["final"] = True
            body["stop_reason"] = self.driver.stop_reason or ""
        self._send(COL_REPORT, body)

    def _send(self, mtype: str, body: dict) -> None:
        if self._col is None:
            return
        # Asynchronous fire-and-forget: the frame leaves on the driver's
        # own reactor loop, so shipping never stalls the component. The
        # collector being away must never take a node down — delivery
        # failures land in driver.send_errors, not here.
        self.driver.post(
            f"{self._col[0]}:{self._col[1]}",
            Message(mtype=mtype, sender=self.driver.contact, body=body),
            timeout=2.0)


def _bind_driver(component: Component, host: str, port: int,
                 telemetry: Telemetry, speed: float,
                 stream: Optional[str] = None,
                 attempts: int = 20, delay: float = 0.1) -> NetDriver:
    """Bind the node's preallocated port (and HTTP ``stream`` address),
    riding out a crashed predecessor's socket teardown."""
    last: Optional[OSError] = None
    for _ in range(attempts):
        try:
            return NetDriver(component, host=host, port=port,
                             telemetry=telemetry, speed=speed, stream=stream)
        except OSError as exc:
            last = exc
            time.sleep(delay)
    raise last if last is not None else OSError("bind failed")


def run_node(
    manifest_path: str,
    name: str,
    deadline: float,
    incarnation: int = 0,
) -> int:
    """Run one node to its deadline (or until told to stop); returns an
    exit code. This is what ``repro live-node`` calls."""
    manifest = Manifest.load(manifest_path)
    topo = manifest.topology
    spec = topo.named(name)
    idx = topo.index_of(name)
    host, _, port = manifest.contact(name).rpartition(":")
    telemetry = Telemetry(
        trace=True,
        id_base=((idx + 1) * MAX_INCARNATIONS
                 + incarnation % MAX_INCARNATIONS) * ID_BLOCK)
    data_dir = os.path.dirname(os.path.abspath(manifest_path))
    component = build_component(manifest, name, data_dir=data_dir)
    speed = topo.speed if spec.role == "client" else 0.0
    gateway = spec.role == "gateway"
    driver = _bind_driver(
        component, host, int(port), telemetry, speed,
        stream=manifest.http_contact(name) if gateway else None)
    shipper = _Shipper(driver, manifest, name, incarnation)
    # Flight recorder: the node's black box and the one carrier of its
    # spans and log lines. A log line is flushed as it is written and a
    # span by the tick that takes it, so
    # a SIGKILLed incarnation leaves its whole life behind for the
    # supervisor to recover (DESIGN §14). The epoch is the wall clock at
    # the driver's t=0, which places span timestamps on wall time.
    flight = FlightRecorder(
        flight_path(data_dir, name, incarnation), telemetry=telemetry,
        node=name, incarnation=incarnation,
        epoch=time.time() - driver.now())
    driver.log_sink = flight.observe_log

    def _tick() -> None:
        shipper.tick()
        flight.tick()
        # A spooled span can leave memory: without this a busy node
        # grows its span list (and gen-2 GC pauses) for its whole life.
        telemetry.tracer.trim(flight.cursor)

    driver.tick_hook = _tick
    # The final report, then the seal, then the journal.
    driver.drain_hooks += [
        shipper.drain, lambda: flight.seal(driver.stop_reason or "deadline")]
    if gateway:
        driver.drain_hooks.append(component.work.close)
    driver.install_signal_handlers()
    shipper.hello()
    try:
        driver.run(deadline)
    finally:
        driver.shutdown()
        flight.close()
    return 0

"""The ``repro live-node`` entrypoint: one world process.

A node process is the thinnest possible wrapper around the sans-IO
programming model: read the manifest, build this node's :class:`Component`
exactly as the simulation's scenario builder would (same classes, same
wiring — only the contact strings are ``host:port`` now), run it under
:class:`~repro.core.netdriver.NetDriver` on the preallocated port, and
piggyback a telemetry shipper on the driver's reactor loop. SIGTERM from
the supervisor turns into a graceful drain: the reactor stops at the next
turn, drain hooks flush one final ``COL_REPORT``, and the sockets close.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict
from typing import Optional

from ..core.component import Component
from ..core.gossip.state import ComparatorRegistry
from ..core.gossip.server import GossipServer
from ..core.linguafranca.messages import Message
from ..core.netdriver import NetDriver
from ..core.services.logging import LoggingServer
from ..core.services.persistent import (
    DirectoryBackend,
    PersistentStateServer,
)
from ..core.services.kinds import KindEngine
from ..core.services.scheduler import QueueWorkSource, SchedulerServer
from ..core.telemetry import SpanCursor, Telemetry
from ..control.gateway import GatewayCore, render_payload
from ..control.http import HttpServer
from ..control.workqueue import FileJournal, WorkQueue
# The id-partition constants live with the span-origin decoder so trace
# tooling and the nodes that mint the ids can never drift apart.
from ..obs.jobtrace import ID_BLOCK, MAX_INCARNATIONS
from ..obs.flight import FlightRecorder, flight_path
from ..ramsey.client import (RAMSEY_BEST, RamseyClient, RealEngine,
                             ramsey_comparator, rotated)
from ..ramsey.tasks import unit_generator
from ..ramsey.verify import counter_example_validator
from .collector import COL_HELLO, COL_REPORT
from .topology import Manifest

__all__ = ["build_component", "run_node", "node_stats",
           "ID_BLOCK", "MAX_INCARNATIONS"]


def build_component(manifest: Manifest, name: str,
                    data_dir: Optional[str] = None) -> Component:
    """Build the sans-IO component for node ``name`` from the manifest.

    The same classes the simulation deploys (`scenario.build_core` /
    `model_client_factory`), wired with live ``host:port`` contacts.
    ``data_dir`` is where durable node state lives (the gateway's job
    journal); without it a gateway runs journal-less, losing accepted
    jobs on restart — fine for unit tests, never for ``repro serve``.
    """
    topo = manifest.topology
    spec = topo.named(name)
    idx = topo.index_of(name)
    opts = spec.options
    if spec.role == "gossip":
        comparators = ComparatorRegistry()
        comparators.register(RAMSEY_BEST, ramsey_comparator)
        return GossipServer(
            name,
            well_known=manifest.contacts_for("gossip"),
            comparators=comparators,
            poll_period=topo.gossip_poll_period,
            sync_period=topo.gossip_sync_period,
        )
    if spec.role == "scheduler":
        sched_rank = [s.name for s in topo.by_role("scheduler")].index(name)
        work = QueueWorkSource(generator=unit_generator(
            int(opts.get("k", topo.k)), topo.n,
            base_seed=topo.seed + 1000 * (sched_rank + 1),
            ops_budget=topo.unit_ops_budget))
        # Reap checks every report period: with wall-clock restarts the
        # reap-the-dead-client deadline races the supervisor's restart
        # backoff, and a coarse reap tick would let the restarted
        # client's hello win and silently resume the orphaned unit.
        return SchedulerServer(
            name, work,
            report_period=topo.report_period,
            reap_period=topo.report_period,
            dead_factor=float(opts.get("dead_factor", 4.0)),
        )
    if spec.role == "gateway":
        # A gateway IS a scheduler downward: its work source is the
        # durable WorkQueue the HTTP routers fill, and clients pull via
        # the usual SCH_* protocol. The journal (replayed in the
        # constructor) is what makes a SIGKILL lose no accepted job.
        journal = None
        if data_dir is not None:
            journal = FileJournal(
                os.path.join(data_dir, f"{name}.journal.jsonl"))
        work = WorkQueue(journal=journal, prefix=f"{name}-job")
        return SchedulerServer(
            name, work,
            report_period=topo.report_period,
            reap_period=topo.report_period,
            dead_factor=float(opts.get("dead_factor", 4.0)),
        )
    if spec.role == "persistent":
        backend = None
        backend_dir = opts.get("backend_dir")
        if backend_dir:
            backend = DirectoryBackend(str(backend_dir))
        pst = PersistentStateServer(name, backend=backend)
        pst.add_validator(counter_example_validator)
        return pst
    if spec.role == "logger":
        return LoggingServer(name)
    if spec.role == "client":
        # Clients execute whichever app kind the scheduler hands them:
        # the KindEngine dispatches per-unit (ramsey units to the tuned
        # RealEngine below, explore.* units to the registry-built
        # ExploreEngine — registered by the import side effect here).
        from ..explore import engine as _explore_engine  # noqa: F401
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
            work_period=topo.work_period,
            report_period=topo.report_period,
            hello_retry=topo.hello_retry,
            seed=topo.seed + idx,
        )
        client.site = str(opts.get("site", ""))
        return client
    raise ValueError(f"unknown node role {spec.role!r}")


def node_stats(component: Component) -> dict:
    """Role-specific stats shipped in each ``COL_REPORT`` (JSON-safe)."""
    if isinstance(component, SchedulerServer):
        stats = asdict(component.stats)
        stats["active_clients"] = len(component.clients)
        try:
            stats["queue_depth"] = len(component.work)  # type: ignore[arg-type]
        except TypeError:
            pass
        if isinstance(component.work, WorkQueue):
            stats["jobs"] = component.work.stats()
        return stats
    if isinstance(component, PersistentStateServer):
        stats = asdict(component.stats)
        stats["keys"] = component.backend.keys()
        return stats
    if isinstance(component, LoggingServer):
        return {"records": len(component.records)}
    if isinstance(component, GossipServer):
        stats = asdict(component.stats)
        stats["registered"] = len(component.registry)
        if component.clique is not None:
            stats["clique_size"] = len(component.pool_members())
        return stats
    if isinstance(component, RamseyClient):
        return {
            "counter_examples_found": component.counter_examples_found,
            "checkpoint_acks": component.checkpoint_acks,
            "checkpoint_denials": component.checkpoint_denials,
            "checkpoint_give_ups": component.checkpoint_give_ups,
            "unit_id": component.unit.get("id") if component.unit else None,
            "site": component.site,
            "total_ops": component._total_ops,
        }
    return {}


class _Shipper:
    """Ships telemetry snapshots/spans/logs to the collector, riding the
    driver's reactor loop (tick hook) and drain path (drain hook)."""

    def __init__(self, driver: NetDriver, manifest: Manifest, name: str,
                 incarnation: int, ship_period: float) -> None:
        self.driver = driver
        self.name = name
        self.incarnation = incarnation
        self.ship_period = ship_period
        host, _, port = manifest.collector.rpartition(":")
        self._col = (host, int(port)) if host and port else None
        #: Wall clock matching the driver's t=0 (set just after driver
        #: construction, so span timestamps map onto wall time).
        self.epoch = time.time() - driver.now()
        self.seq = 0
        self.sent = 0
        self.errors = 0
        self.spans = SpanCursor(driver.telemetry.tracer)
        self._logs: list[dict] = []
        self._last_ship = driver.now()

    # -- driver hooks --------------------------------------------------------
    def log_sink(self, now: float, component: str, level: str, text: str) -> None:
        self._logs.append({"t": now, "component": component,
                           "level": level, "text": text})

    def tick(self) -> None:
        if self.driver.now() - self._last_ship >= self.ship_period:
            self.ship()

    def drain(self) -> None:
        self.ship(final=True)

    # -- shipping ------------------------------------------------------------
    def hello(self) -> None:
        self._send(COL_HELLO, {
            "node": self.name,
            "pid": os.getpid(),
            "incarnation": self.incarnation,
            "epoch": self.epoch,
        })

    def ship(self, final: bool = False) -> None:
        self._last_ship = self.driver.now()
        self.seq += 1
        logs, self._logs = self._logs, []
        body = {
            "node": self.name,
            "seq": self.seq,
            "incarnation": self.incarnation,
            "metrics": self.driver.telemetry.snapshot(),
            "spans": [s.to_dict() for s in self.spans.take(final)],
            "logs": logs,
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
        self.sent += 1


def _bind_driver(component: Component, host: str, port: int,
                 telemetry: Telemetry, speed: float,
                 attempts: int = 20, delay: float = 0.1) -> NetDriver:
    """Bind the node's preallocated port, riding out the window where a
    crashed predecessor's socket is still being torn down."""
    last: Optional[OSError] = None
    for _ in range(attempts):
        try:
            return NetDriver(component, host=host, port=port,
                             telemetry=telemetry, speed=speed)
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
        trace=topo.trace,
        id_base=((idx + 1) * MAX_INCARNATIONS
                 + incarnation % MAX_INCARNATIONS) * ID_BLOCK)
    data_dir = os.path.dirname(os.path.abspath(manifest_path))
    component = build_component(manifest, name, data_dir=data_dir)
    speed = topo.speed if spec.role == "client" else 0.0
    driver = _bind_driver(component, host, int(port), telemetry, speed)
    shipper = _Shipper(driver, manifest, name, incarnation,
                       topo.ship_period)
    tick_hooks = [shipper.tick]
    flight: Optional[FlightRecorder] = None
    if topo.trace:
        # Flight recorder: the node's black box. Every closed span and
        # log line also lands in a bounded on-disk spool, flushed per
        # record, so a SIGKILLed incarnation leaves its last N records
        # behind for the supervisor to recover (DESIGN §14).
        flight = FlightRecorder(
            flight_path(data_dir, name, incarnation),
            telemetry=telemetry, node=name, incarnation=incarnation,
            epoch=shipper.epoch, capacity=topo.flight_capacity)
        tick_hooks.append(flight.tick)
        driver.log_sink = _fan_out_logs(
            [shipper.log_sink, flight.observe_log])
    else:
        driver.log_sink = shipper.log_sink
    if spec.role == "gateway":
        server = _attach_gateway(driver, manifest, name)
        tick_hooks.append(server.poll_parked)
    if topo.trace:
        # Once both cursor-holders have taken a span it can leave memory;
        # without this a busy traced node grows its span list (and gen-2
        # GC pauses) without bound for the life of the process.
        def _trim_spans() -> None:
            telemetry.tracer.trim(min(shipper.spans.position, flight.cursor))

        tick_hooks.append(_trim_spans)
    driver.tick_hook = (tick_hooks[0] if len(tick_hooks) == 1
                        else _fan_out(tick_hooks))
    driver.drain_hooks.insert(0, shipper.drain)
    if flight is not None:
        # After the shipper's final report (so the seal records spans the
        # collector already has — recovery is idempotent), before the
        # server/journal close hooks appended by _attach_gateway.
        driver.drain_hooks.insert(
            1, lambda: flight.seal(driver.stop_reason or "deadline"))
    driver.install_signal_handlers()
    shipper.hello()
    try:
        driver.run(deadline)
    finally:
        driver.shutdown()
        if flight is not None:
            flight.close()
    return 0


def _fan_out(hooks: list) -> "callable":
    def dispatch() -> None:
        for hook in hooks:
            hook()
    return dispatch


def _fan_out_logs(sinks: list) -> "callable":
    def dispatch(now: float, component: str, level: str, text: str) -> None:
        for sink in sinks:
            sink(now, component, level, text)
    return dispatch


#: Cap on ``GET /events?wait=`` long-polls, seconds of driver time.
MAX_EVENT_WAIT = 30.0


def _attach_gateway(driver: NetDriver, manifest: Manifest,
                    name: str) -> HttpServer:
    """Hang the HTTP listener off the gateway node's reactor loop.

    One process, one selector loop, two protocols: lingua-franca SCH_*
    frames on the node's world port, HTTP/1.1 on its second preallocated
    port. The router is the sans-IO :class:`GatewayCore`; this wrapper
    owns the clocks (wall latency for histograms, driver time for job
    timestamps) and the ``GET /events?wait=`` long-poll: a poll with
    nothing new returns ``None`` to park the connection, and the reactor
    retries parked requests every tick (``server.poll_parked``) until
    fresh events arrive or the wait deadline passes."""
    work: WorkQueue = driver.component.work
    work.clock = driver.now
    core = GatewayCore(name, work, telemetry=driver.telemetry,
                       started_at=driver.now())
    #: Long-poll deadlines keyed by id(request) — HttpRequest is
    #: __slots__-frozen, so the park state lives here, not on it.
    poll_deadlines: dict[int, float] = {}

    def _long_poll_wait(request) -> bool:
        """True when this request should park instead of answering."""
        path, _, query = request.path.partition("?")
        if request.method != "GET" or path.rstrip("/") != "/events":
            return False
        params = {}
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            params[key] = value
        try:
            since = int(params.get("since", "-1"))
            wait = float(params.get("wait", "0"))
        except ValueError:
            return False  # let the router 400 it
        if wait <= 0 or core.events.since(since, limit=1):
            poll_deadlines.pop(id(request), None)
            return False
        deadline = poll_deadlines.setdefault(
            id(request), driver.now() + min(wait, MAX_EVENT_WAIT))
        if driver.now() >= deadline:
            poll_deadlines.pop(id(request), None)
            return False  # waited long enough: answer empty
        return True

    def app(request):
        if _long_poll_wait(request):
            return None
        t0 = time.monotonic()
        status, payload, route = core.handle(
            request.method, request.path, request.body, driver.now())
        core.observe_latency(route, (time.monotonic() - t0) * 1000.0)
        return render_payload(status, payload, route, close=request.close)

    http_host, _, http_port = manifest.http_contact(name).rpartition(":")
    last: Optional[OSError] = None
    for _ in range(20):
        try:
            server = HttpServer(http_host, int(http_port), app,
                                loop=driver.loop)
            break
        except OSError as exc:  # predecessor's socket still tearing down
            last = exc
            time.sleep(0.1)
    else:
        raise last if last is not None else OSError("http bind failed")
    driver.drain_hooks.append(server.close)
    driver.drain_hooks.append(work.close)
    return server

"""Scheduling servers (§3.1.1).

Clients periodically report computational progress; scheduling servers
issue control directives based on the algorithm the client runs, its
progress, and its most recent computational rate. Servers forecast
per-client rates with the NWS machinery and *migrate work* from clients
predicted to be slow toward faster ones ("if a scheduler predicts that a
client will be slow based on previous performance, it may choose to
migrate that client's current workload to a machine that it predicts will
be faster").

Protocol
--------
``SCH_HELLO``   client → scheduler: announce (infra, arch), ask for work.
``SCH_WORK``    scheduler → client: a work unit + reporting parameters.
``SCH_REPORT``  client → scheduler: ops done, rate, progress, done flag.
``SCH_DIRECTIVE`` scheduler → client: continue | new_work | migrate.
``SCH_ACK``     client → scheduler: acknowledges a unit-carrying
                assignment (see below).

Assignments that carry a work unit are *reliable* sends: the driver
retransmits them until the client acknowledges with ``SCH_ACK``, and if
the retry policy gives up (client crashed, site partitioned) the
scheduler requeues the unit immediately instead of waiting for the reap
timer — the unit's loss is observed, not inferred.

Schedulers are deliberately stateless with respect to application results
(the paper runs them inside Condor pools where they die freely): all
result state of value lives in the Gossip/persistent services. A lost
work unit is simply requeued and reissued.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, nan
from typing import Optional, Protocol

from ..component import Component, Effect, LogLine, Send, SetTimer
from ..forecasting.benchmarking import ForecastRegistry, event_tag
from ..linguafranca.messages import Message
from ..policy import RetryPolicy

__all__ = [
    "SchedulerServer",
    "SchedulerStats",
    "WorkSource",
    "QueueWorkSource",
    "SCH_HELLO",
    "SCH_WORK",
    "SCH_REPORT",
    "SCH_DIRECTIVE",
    "SCH_ACK",
]

SCH_HELLO = "SCH_HELLO"
SCH_WORK = "SCH_WORK"
SCH_REPORT = "SCH_REPORT"
SCH_DIRECTIVE = "SCH_DIRECTIVE"
SCH_ACK = "SCH_ACK"

T_REAP = "sch:reap"

RATE = "RATE"  # forecast stream name per client


class WorkSource(Protocol):
    """Supplies and recycles application work units (application-specific:
    the Ramsey search provides one over its search subspaces)."""

    def next_unit(self) -> Optional[dict]: ...

    def requeue(self, unit: dict) -> None: ...

    def complete(self, unit_id: str, result: dict) -> None: ...


class QueueWorkSource:
    """FIFO work source with priority requeue; never runs dry if a
    ``generator`` callable is given (it mints fresh units on demand)."""

    def __init__(self, units: Optional[list[dict]] = None, generator=None) -> None:
        self._queue: list[dict] = list(units or [])
        self._generator = generator
        self._minted = 0
        self.completed: dict[str, dict] = {}

    def next_unit(self) -> Optional[dict]:
        if self._queue:
            return self._queue.pop(0)
        if self._generator is not None:
            self._minted += 1
            unit = self._generator(self._minted)
            return unit
        return None

    def requeue(self, unit: dict) -> None:
        # Recycled units go to the front: they represent in-flight work.
        self._queue.insert(0, unit)

    def complete(self, unit_id: str, result: dict) -> None:
        self.completed[unit_id] = result

    def __len__(self) -> int:
        return len(self._queue)


@dataclass
class SchedulerStats:
    hellos: int = 0
    reports: int = 0
    units_assigned: int = 0
    units_completed: int = 0
    migrations: int = 0
    reaps: int = 0
    param_directives: int = 0
    units_requeued: int = 0


@dataclass
class _ClientState:
    contact: str
    infra: str
    unit: Optional[dict] = None
    last_seen: float = 0.0
    last_rate: float = 0.0
    last_best_energy: Optional[float] = None
    stalled_reports: int = 0


#: Control policy: inspects (client state, report body) and returns extra
#: engine parameters to push in the directive, or None. This is the
#: paper's "servers are programmed to issue different control directives
#: based on the type of algorithm the client is executing" (§3.1.1) as a
#: pluggable module.
ControlPolicy = "Callable[[_ClientState, dict], Optional[dict]]"


def stall_reheat_policy(client: "_ClientState", body: dict) -> Optional[dict]:
    """Default algorithm-aware policy: a stalled annealing client is told
    to reheat; tabu clients get no parameter nudges (their restart logic
    is internal)."""
    progress = body.get("progress")
    if not isinstance(progress, dict):
        return None
    unit = client.unit or {}
    if unit.get("heuristic") != "anneal":
        return None
    best = progress.get("best_energy")
    if best is None:
        return None
    if client.last_best_energy is not None and best >= client.last_best_energy:
        client.stalled_reports += 1
    else:
        client.stalled_reports = 0
    client.last_best_energy = float(best)
    if client.stalled_reports >= 3:
        client.stalled_reports = 0
        return {"reheat": True}
    return None


class SchedulerServer(Component):
    """One cooperating-but-independent scheduling server."""

    def __init__(
        self,
        name: str,
        work: WorkSource,
        report_period: float = 30.0,
        reap_period: float = 60.0,
        dead_factor: float = 4.0,
        migrate_fraction: float = 0.25,
        min_rate_samples: int = 3,
        control_policy=stall_reheat_policy,
        assign_retry: Optional[RetryPolicy] = RetryPolicy(max_attempts=3),
    ) -> None:
        super().__init__(name)
        self.work = work
        self.report_period = report_period
        self.reap_period = reap_period
        self.dead_factor = dead_factor
        #: Clients forecast below ``migrate_fraction`` x pool median rate
        #: have their unit migrated to a faster home.
        self.migrate_fraction = migrate_fraction
        self.min_rate_samples = min_rate_samples
        self.control_policy = control_policy
        #: Retry policy for unit-carrying assignments (``None`` restores
        #: the fire-and-forget behavior: lost units wait for the reaper).
        self.assign_retry = assign_retry
        self.clients: dict[str, _ClientState] = {}
        self.forecasts = ForecastRegistry()
        self.stats = SchedulerStats()

    # -- lifecycle ------------------------------------------------------------
    def on_start(self, now: float) -> list[Effect]:
        return [SetTimer(T_REAP, self.reap_period)]

    # -- messages ------------------------------------------------------------
    def on_message(self, message: Message, now: float) -> list[Effect]:
        if message.mtype == SCH_HELLO:
            return self._on_hello(message, now)
        if message.mtype == SCH_REPORT:
            return self._on_report(message, now)
        if message.mtype == SCH_ACK:
            client = self.clients.get(message.sender)
            if client is not None:
                client.last_seen = now
            return []  # the driver already resolved the reliable send
        return []

    def _assign(self, client: _ClientState, now: float) -> Optional[dict]:
        unit = self.work.next_unit()
        if unit is not None:
            client.unit = unit
            self.stats.units_assigned += 1
            self.telemetry.metrics.counter("sch.units_assigned").inc()
        try:
            depth = len(self.work)  # type: ignore[arg-type]
        except TypeError:
            depth = 0
        self.telemetry.metrics.gauge("sch.queue_depth",
                                     component=self.name).set(depth)
        return unit

    def _assignment_send(self, contact: str, reply: Message) -> Send:
        """Unit-carrying assignments go out reliably (ACKed, retried,
        requeued on give-up); unit-less ones stay fire-and-forget."""
        if self.assign_retry is not None and reply.body.get("unit") is not None:
            return Send(contact, reply, retry=self.assign_retry,
                        label=f"assign:{contact}")
        return Send(contact, reply)

    def _on_hello(self, message: Message, now: float) -> list[Effect]:
        contact = message.sender
        self.stats.hellos += 1
        client = self.clients.get(contact)
        if client is None:
            client = _ClientState(contact=contact, infra=message.body.get("infra", "unknown"))
            self.clients[contact] = client
        client.last_seen = now
        if client.unit is None:
            self._assign(client, now)
        body = {
            "unit": client.unit,
            "report_period": self.report_period,
        }
        return [self._assignment_send(
            contact, message.reply(SCH_WORK, sender=self.contact, body=body))]

    def _on_report(self, message: Message, now: float) -> list[Effect]:
        contact = message.sender
        # Checked before any state moves: a rate that is not a finite
        # number (a peer can send NaN, "nan", 1e999, 10**400 or a list) is
        # not recorded, and the rest of the report is handled as usual.
        try:
            rate = float(message.body.get("rate", 0.0))
        except (TypeError, ValueError, OverflowError):
            rate = nan
        self.stats.reports += 1
        client = self.clients.get(contact)
        if client is None:
            # Unknown reporter (e.g. we restarted): adopt it.
            client = _ClientState(contact=contact, infra=message.body.get("infra", "unknown"))
            self.clients[contact] = client
        client.last_seen = now
        if isfinite(rate):
            client.last_rate = rate
            self.forecasts.record(event_tag(contact, RATE), rate)

        done = bool(message.body.get("done", False))
        unit_id = message.body.get("unit_id")
        action = "continue"
        unit_payload = None
        if done:
            if unit_id is not None:
                self.work.complete(str(unit_id), message.body.get("result", {}))
                self.stats.units_completed += 1
            client.unit = None
            new_unit = self._assign(client, now)
            action, unit_payload = "new_work", new_unit
        elif self._should_migrate(contact, now):
            # Predicted slow: reclaim the unit for a faster home. Pull the
            # slow client's replacement *before* requeueing, so it cannot be
            # handed its own unit straight back.
            migrated = None
            if client.unit is not None:
                migrated = dict(client.unit)
                progress = message.body.get("progress")
                if isinstance(progress, dict):
                    migrated["resume"] = progress
            client.unit = None
            new_unit = self._assign(client, now)
            if migrated is not None:
                self.work.requeue(migrated)
                self.stats.units_requeued += 1
                self.telemetry.metrics.counter("sch.units_requeued").inc()
            self.stats.migrations += 1
            self.telemetry.metrics.counter("sch.migrations").inc()
            action, unit_payload = "migrate", new_unit
        body = {"action": action, "unit": unit_payload}
        if action == "continue" and self.control_policy is not None:
            params = self.control_policy(client, message.body)
            if params:
                body["params"] = params
                self.stats.param_directives += 1
        return [self._assignment_send(
            contact,
            message.reply(SCH_DIRECTIVE, sender=self.contact, body=body))]

    def on_send_failed(self, send: Send, now: float) -> list[Effect]:
        """A unit-carrying assignment was never acknowledged: the client
        is unreachable (crashed, partitioned, reclaimed). Requeue the
        unit right away rather than waiting for the reap timer."""
        label = send.label or ""
        if not label.startswith("assign:"):
            return []
        contact = label.partition(":")[2]
        unit = send.message.body.get("unit")
        if not isinstance(unit, dict):
            return []
        client = self.clients.get(contact)
        # Only requeue if the client still holds *this* unit — a late ACK
        # path where the client moved on must not clone work.
        if client is None or client.unit is None or \
                client.unit.get("id") != unit.get("id"):
            return []
        self.work.requeue(client.unit)
        client.unit = None
        self.stats.units_requeued += 1
        self.telemetry.metrics.counter("sch.units_requeued").inc()
        self.telemetry.event("requeue unit", now, component=self.name,
                             outcome="requeue",
                             unit_id=str(unit.get("id")), client=contact)
        return [LogLine(f"assignment to {contact} gave up; "
                        f"requeued unit {unit.get('id')!r}")]

    # -- migration policy ---------------------------------------------------------
    def _forecast_rate(self, contact: str) -> Optional[float]:
        fc = self.forecasts.forecast(event_tag(contact, RATE))
        if fc is None or fc.samples < self.min_rate_samples:
            return None
        return fc.value

    def _should_migrate(self, contact: str, now: float) -> bool:
        mine = self._forecast_rate(contact)
        if mine is None:
            return False
        pool = [
            r for c in self.clients.values()
            if (r := self._forecast_rate(c.contact)) is not None
        ]
        if len(pool) < 3:
            return False
        pool.sort()
        median = pool[len(pool) // 2]
        return mine < self.migrate_fraction * median

    # -- timers ------------------------------------------------------------
    def on_timer(self, key: str, now: float) -> list[Effect]:
        if key != T_REAP:
            return []
        effects: list[Effect] = [SetTimer(T_REAP, self.reap_period)]
        deadline = self.dead_factor * self.report_period
        for contact in sorted(self.clients):
            client = self.clients[contact]
            if now - client.last_seen > deadline:
                if client.unit is not None:
                    self.work.requeue(client.unit)
                    self.stats.units_requeued += 1
                    self.telemetry.metrics.counter("sch.units_requeued").inc()
                    self.telemetry.event(
                        "requeue unit", now, component=self.name,
                        outcome="requeue",
                        unit_id=str(client.unit.get("id")), client=contact)
                del self.clients[contact]
                self.forecasts.drop(event_tag(contact, RATE))
                self.stats.reaps += 1
                effects.append(LogLine(f"reaping silent client {contact}"))
        return effects

    # -- introspection -------------------------------------------------------
    def active_clients(self) -> list[str]:
        return sorted(self.clients)

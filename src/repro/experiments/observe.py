"""The observability smoke scenario: a traced fault→requeue causal chain.

A deliberately small world whose whole point is the *trace* it leaves
behind: one scheduler handing out work units reliably, one logging
server, and two clients — one of which the fault plan crashes before its
first assignment can reach it. Under tracing, the run must produce a
causally linked span chain

    fault crashes ─▸ drop dropped_down ─▸ (call SCH_WORK) ─▸ retransmit*
                                                        └▸ send-failed ─▸ requeue unit

i.e. the requeued unit's spans walk back through the retransmissions of
the reliable assignment to the injected fault that killed its recipient.
:func:`requeue_chains` extracts and validates exactly that chain; the
tier-1 suite additionally pins the exported Chrome trace, metrics and
report of one seeded run by SHA-256.

Run it from the command line via ``repro trace`` (see
:mod:`repro.cli`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.services.logging import LoggingServer
from ..core.services.scheduler import QueueWorkSource, SchedulerServer
from ..core.simdriver import SimDriver
from ..core.telemetry import Span, Telemetry
from ..ramsey.client import ModelEngine, RamseyClient
from ..ramsey.tasks import unit_generator
from ..simgrid.engine import Environment
from ..simgrid.faults import FaultPlan
from ..simgrid.host import Host, HostSpec
from ..simgrid.load import ConstantLoad
from ..simgrid.network import Network
from ..simgrid.rand import RngStreams

__all__ = ["ObserveConfig", "ObserveWorld", "run_observe", "requeue_chains"]


@dataclass(frozen=True)
class ObserveConfig:
    """Knobs for the traced smoke run (CI-sized defaults)."""

    seed: int = 7
    duration: float = 420.0
    #: Crash the doomed client's host before the scheduler's first
    #: assignment can be delivered (network latency floor is ~50 ms), so
    #: the reliable send is guaranteed to retransmit into a dead host.
    crash_at: float = 0.02
    reboot_after: float = 180.0
    n_clients: int = 2
    work_period: float = 15.0
    report_period: float = 30.0
    unit_ops_budget: float = 1e9


class ObserveWorld:
    """Scheduler + logger + clients, one of them doomed."""

    def __init__(
        self,
        cfg: Optional[ObserveConfig] = None,
        telemetry: Optional[Telemetry] = None,
        trace: bool = True,
    ) -> None:
        self.cfg = cfg = cfg or ObserveConfig()
        self.env = Environment()
        self.streams = RngStreams(seed=cfg.seed)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        if trace:
            self.telemetry.tracer.enabled = True
        self.network = Network(self.env, self.streams,
                               base_latency=0.05, jitter=0.2)
        self.network.attach_telemetry(self.telemetry)

        def add_host(name: str, site: str) -> Host:
            host = Host(self.env, HostSpec(
                name=name, site=site, infra="observe", speed=2e7,
                load_model=ConstantLoad(1.0)), self.streams)
            self.network.add_host(host)
            host.start()
            return host

        self.work = QueueWorkSource(generator=unit_generator(
            8, 4, base_seed=100, ops_budget=cfg.unit_ops_budget))
        self.scheduler = SchedulerServer(
            "sched0", self.work,
            report_period=cfg.report_period,
            reap_period=4 * cfg.report_period,
        )
        sched_host = add_host("sched0", "ucsd")
        SimDriver(self.env, self.network, sched_host, "sched",
                  self.scheduler, self.streams).start()

        self.logger = LoggingServer("logger0")
        log_host = add_host("logger0", "ucsd")
        SimDriver(self.env, self.network, log_host, "log",
                  self.logger, self.streams).start()

        self.clients: list[RamseyClient] = []
        for i in range(cfg.n_clients):
            host = add_host(f"cli{i}", "utk")
            client = RamseyClient(
                name=f"cli{i}",
                schedulers=["sched0/sched"],
                engine=ModelEngine(),
                infra="observe",
                loggers=["logger0/log"],
                work_period=cfg.work_period,
                report_period=cfg.report_period,
                hello_retry=60.0,
                seed=i,
            )
            SimDriver(self.env, self.network, host, "cli",
                      client, self.streams).start()
            self.clients.append(client)
        self.network.start()

        # cli0 dies in the window between its HELLO leaving and the
        # scheduler's reliable SCH_WORK reply arriving.
        self.plan = FaultPlan().crash(
            at=cfg.crash_at, host="cli0", reboot_after=cfg.reboot_after)
        self.plan.install(self.env, self.network)

    def run(self) -> dict:
        self.env.run(until=self.cfg.duration)
        return self.report()

    def report(self) -> dict:
        """Diff-stable summary (simulated time and counters only)."""
        return {
            "scenario": "observe",
            "seed": self.cfg.seed,
            "duration": self.cfg.duration,
            "spans": len(self.telemetry.tracer.spans),
            "requeue_chains": requeue_chains(self.telemetry),
            "metrics": self.telemetry.metrics.snapshot(),
        }


def requeue_chains(telemetry: Telemetry) -> list[dict]:
    """Extract every requeue's causal chain back to its root cause.

    For each ``requeue unit`` span, walk its ancestry to the reliable
    assignment's ``call`` span, collect that call's retransmission
    instants, the fault-attributed drops on the same trace, and resolve
    the fault spans they point at. The result is JSON-stable (ids,
    names, simulated times)."""
    tracer = telemetry.tracer
    index = tracer.by_span_id()
    chains: list[dict] = []
    for requeue in tracer.named("requeue unit"):
        call: Optional[Span] = None
        for anc in tracer.ancestry(requeue):
            if anc.name.startswith("call "):
                call = anc
                break
        if call is None:
            continue
        retransmits = [s for s in tracer.spans
                       if s.outcome == "retransmit"
                       and s.parent_id == call.span_id]
        drops = [s for s in tracer.spans
                 if s.trace_id == call.trace_id
                 and s.name.startswith("drop ")
                 and "fault_span" in s.args]
        faults = []
        for drop in drops:
            fault = index.get(drop.args["fault_span"])
            if fault is not None and fault not in faults:
                faults.append(fault)
        chains.append({
            "unit_id": requeue.args.get("unit_id"),
            "client": requeue.args.get("client"),
            "requeued_at": requeue.start,
            "call": call.name,
            "call_span": call.span_id,
            "call_outcome": call.outcome,
            "retransmits": len(retransmits),
            "drops": [s.name for s in drops],
            "faults": [s.name for s in faults],
        })
    return chains


def run_observe(
    cfg: Optional[ObserveConfig] = None,
    telemetry: Optional[Telemetry] = None,
    trace: bool = True,
) -> tuple[dict, Telemetry]:
    """Build and run the smoke world; return (report, telemetry)."""
    world = ObserveWorld(cfg, telemetry=telemetry, trace=trace)
    report = world.run()
    return report, world.telemetry

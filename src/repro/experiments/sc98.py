"""The SC98 High-Performance Computing Challenge scenario (§4).

Builds the full experiment the paper reports as a topology on one
:class:`~repro.core.simdriver.SimWorld`: the Figure-1 service topology
(:func:`build_core`, which the chaos scenarios reuse), the computational
clients the adapters launch (:func:`model_client_factory`), all seven
infrastructure adapters, the ambient-load story of the twelve hours
leading up to the judging (23:36:56 → 11:36:56 PST), and the measurement
plane that regenerates Figures 2, 3(a–c) and 4(a–c).

The judging-time forcing function follows §4.1: at 11:00 competing
projects claimed resources and SCInet load spiked, halving-and-worse the
application's deliverable compute and inflating network latencies; by
11:10 (the live demonstration) conditions had partially recovered, but
the floor stayed busier than overnight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..core.gossip.server import GossipServer
from ..core.gossip.state import ComparatorRegistry
from ..core.services.logging import LoggingServer
from ..core.services.persistent import PersistentStateServer
from ..core.services.scheduler import QueueWorkSource, SchedulerServer
from ..core.simdriver import SimWorld
from ..core.telemetry import Telemetry
from ..infra.base import ClientFactory, InfraAdapter
from ..infra.condor import CondorPool
from ..infra.globus import GlobusSites
from ..infra.java import JavaApplets
from ..infra.legion import LegionNet
from ..infra.netsolve import NetSolveFarm
from ..infra.nt import NTSupercluster
from ..infra.unixpool import UnixPool
from ..ramsey.client import (RAMSEY_BEST, ModelEngine, RamseyClient,
                             ramsey_comparator, rotated)
from ..ramsey.tasks import unit_generator
from ..ramsey.verify import counter_example_validator
from ..simgrid.host import Host
from ..simgrid.load import ComposedLoad, ConstantLoad, EventSchedule, MeanRevertingLoad, ScheduledEvent
from .metrics import HostCountSampler, SeriesBundle, collect_rate_series

__all__ = ["SC98Config", "SC98World", "ServiceCore", "build_core", "build_sc98",
           "clock_to_offset", "model_client_factory", "offset_to_clock"]

#: The run starts at 23:36:56 PST (first x label of Fig. 2).
START_CLOCK = (23, 36, 56)


def clock_to_offset(hh: int, mm: int = 0, ss: int = 0) -> float:
    """Seconds from run start (23:36:56) to the given PST wall-clock time
    on the judging morning."""
    start = START_CLOCK[0] * 3600 + START_CLOCK[1] * 60 + START_CLOCK[2]
    t = hh * 3600 + mm * 60 + ss
    if t < start:
        t += 24 * 3600  # past midnight
    return float(t - start)


def offset_to_clock(offset: float) -> str:
    """Format a run offset as the wall-clock label the paper's x axes use."""
    start = START_CLOCK[0] * 3600 + START_CLOCK[1] * 60 + START_CLOCK[2]
    t = int(start + offset) % (24 * 3600)
    return f"{t // 3600:d}:{(t % 3600) // 60:02d}:{t % 60:02d}"


@dataclass
class SC98Config:
    """Scenario knobs. ``scale`` shrinks host counts (and the measurement
    duration is set separately) so tests can run small."""

    seed: int = 1998
    duration: float = 12 * 3600.0
    bucket: float = 300.0  # the paper's five-minute averages
    scale: float = 1.0
    k: int = 43  # the R(5,5) search target of §3
    n: int = 5
    report_period: float = 150.0
    work_period: float = 150.0
    #: Client compute engine: "model" burns simulated cycles (SC98-scale
    #: runs), "real" executes the op-counted search kernels.
    engine: str = "model"
    #: Compute-pool workers for the real engine (0 = inline, the
    #: default substrate). Kernel results are bit-identical either way,
    #: so this knob changes wall-clock speed only — never outcomes.
    compute_pool: int = 0
    #: Step cap per real-engine advance (lowered for smoke runs).
    max_steps_per_advance: int = 2000

    @property
    def n_buckets(self) -> int:
        return int(self.duration // self.bucket)

    def scaled(self, count: int, minimum: int = 1) -> int:
        return max(int(round(count * self.scale)), minimum)


@dataclass
class SC98Results:
    """Figure-ready data."""

    config: SC98Config
    series: SeriesBundle
    lsf_kills: int = 0
    condor_reclamations: int = 0
    legion_translated: int = 0
    gossip_stats: list = field(default_factory=list)
    scheduler_stats: list = field(default_factory=list)

    # -- headline numbers (§4.1) --------------------------------------------
    def peak(self) -> tuple[float, float]:
        """(time offset, ops/sec) of the best five-minute average."""
        idx = int(np.argmax(self.series.total_rate))
        return float(self.series.times[idx]), float(self.series.total_rate[idx])

    def rate_at(self, offset: float) -> float:
        idx = np.searchsorted(self.series.times, offset, side="right") - 1
        idx = min(max(idx, 0), len(self.series.total_rate) - 1)
        return float(self.series.total_rate[idx])

    def judging_dip(self) -> float:
        """Lowest five-minute average in the judging window (11:00–11:15)."""
        t0, t1 = clock_to_offset(11, 0), clock_to_offset(11, 15)
        mask = (self.series.times >= t0) & (self.series.times <= t1)
        if not mask.any():
            return float("nan")
        return float(self.series.total_rate[mask].min())

    def recovery(self) -> float:
        """Rate around the 11:10 demonstration (11:10–11:25 best bucket)."""
        t0, t1 = clock_to_offset(11, 10), clock_to_offset(11, 25)
        mask = (self.series.times >= t0) & (self.series.times <= t1)
        if not mask.any():
            return float("nan")
        return float(self.series.total_rate[mask].max())


@dataclass
class ServiceCore:
    """Handles to the deployed well-known services of Figure 1."""

    schedulers: list[SchedulerServer] = field(default_factory=list)
    scheduler_contacts: list[str] = field(default_factory=list)
    gossips: list[GossipServer] = field(default_factory=list)
    gossip_contacts: list[str] = field(default_factory=list)
    loggers: list[LoggingServer] = field(default_factory=list)
    logger_contacts: list[str] = field(default_factory=list)
    persistents: list[PersistentStateServer] = field(default_factory=list)
    persistent_contacts: list[str] = field(default_factory=list)


def build_core(
    world: SimWorld,
    n_schedulers: int = 3,
    n_gossips: int = 3,
    n_loggers: int = 2,
    n_persistents: int = 1,
    k: int = 43,
    n: int = 5,
    unit_ops_budget: float = 1e12,
    report_period: float = 150.0,
    gossip_poll_period: float = 120.0,
    gossip_sync_period: float = 90.0,
    ks: Optional[list[int]] = None,
) -> ServiceCore:
    """Deploy the application-specific services — schedulers ("S"),
    Gossips ("G"), logging servers ("L") and persistent state managers
    ("P") — as ``world`` services on dedicated, reliable hosts (the
    paper stationed its Gossips "at well-known addresses around the
    country" and kept persistent state at SDSC).

    ``ks`` optionally gives each scheduler its own problem size
    (scheduler ``i`` mints units for ``ks[i % len(ks)]``); the chaos
    scenarios use it to spread the search over several small targets so
    distinct counter-example keys reach the persistent store.
    """
    core = ServiceCore()
    sites = ["ucsd", "utk", "uva", "ncsa"]

    def deploy(i: int, port: str, component, roster: list,
               contacts: list) -> None:
        host = world.host(component.name, site=sites[i % len(sites)],
                          infra="service", speed=2e7,
                          load_model=ConstantLoad(1.0))
        host.start()
        world.spawn(host, port, component, service=True)
        roster.append(component)
        contacts.append(f"{host.name}/{port}")

    comparators = ComparatorRegistry()
    comparators.register(RAMSEY_BEST, ramsey_comparator)
    well_known = [f"gossip{i}/gossip" for i in range(n_gossips)]
    for i in range(n_gossips):
        deploy(i, "gossip", GossipServer(
            f"gossip{i}",
            well_known=well_known,
            comparators=comparators,
            poll_period=gossip_poll_period,
            sync_period=gossip_sync_period,
        ), core.gossips, core.gossip_contacts)

    for i in range(n_schedulers):
        sched_k = ks[i % len(ks)] if ks else k
        work = QueueWorkSource(generator=unit_generator(
            sched_k, n, base_seed=1000 * (i + 1), ops_budget=unit_ops_budget))
        deploy(i, "sched", SchedulerServer(
            f"sched{i}", work,
            report_period=report_period,
            reap_period=2 * report_period,
        ), core.schedulers, core.scheduler_contacts)

    for i in range(n_loggers):
        deploy(i, "log", LoggingServer(f"logger{i}"),
               core.loggers, core.logger_contacts)

    for i in range(n_persistents):
        pst = PersistentStateServer(f"pst{i}")
        pst.add_validator(counter_example_validator)
        deploy(i, "pst", pst, core.persistents, core.persistent_contacts)

    return core


def model_client_factory(
    core: ServiceCore,
    work_period: float = 150.0,
    report_period: float = 150.0,
    engine_factory: Optional[Callable[[], object]] = None,
    via: Optional[str] = None,
) -> ClientFactory:
    """The computational clients ("A") the infrastructure adapters launch
    and relaunch by their own semantics, wired into the service core.

    Clients spread across schedulers and loggers round-robin by index;
    ``via`` routes their scheduler, logger and persistent-state traffic
    through one contact instead (Legion's translator)."""

    def factory(host: Host, infra: str, idx: int) -> RamseyClient:
        persistent = via or (
            core.persistent_contacts[0] if core.persistent_contacts else None)
        engine = engine_factory() if engine_factory is not None else ModelEngine()
        return RamseyClient(
            name=f"{infra}-cli{idx}",
            schedulers=[via] if via else rotated(core.scheduler_contacts, idx),
            engine=engine,
            infra=infra,
            loggers=[via] if via else [
                core.logger_contacts[idx % len(core.logger_contacts)]],
            persistent=persistent,
            gossip_well_known=core.gossip_contacts,
            work_period=work_period,
            report_period=report_period,
            hello_retry=60.0,
            seed=idx,
        )

    return factory


class SC98World(SimWorld):
    """A fully wired SC98 experiment ready to run."""

    def __init__(self, config: SC98Config,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.config = c = config

        # --- ambient stories -------------------------------------------------
        t_judge = clock_to_offset(11, 0)
        t_test = clock_to_offset(9, 36)
        ambient = EventSchedule([
            # §4.1: the best sustained rate came "during a test an hour
            # before the competition" (09:51–09:56) — competitors idled
            # between overnight runs and the demo, freeing resources.
            ScheduledEvent(t_test, t_test + 24 * 60, factor=1.18, ramp=300),
            # Judging at 11:00: competitors claim resources — sharp
            # loss, partial recovery over ~8 minutes...
            ScheduledEvent(t_judge, t_judge + 300, factor=0.42, ramp=480),
            # ...onto a busier-than-overnight floor for the rest of the
            # morning.
            ScheduledEvent(t_judge + 300, max(c.duration, t_judge + 600),
                           factor=0.95),
        ])
        # Shared world registry/tracer (drivers inherit via the network).
        super().__init__(
            c.seed, telemetry if telemetry is not None else Telemetry(),
            base_latency=0.08,
            jitter=0.3,
            congestion_model=ComposedLoad(
                MeanRevertingLoad(mean=0.85, sigma=0.002),
                # SCInet reconfigured on the fly; latencies ballooned.
                EventSchedule([ScheduledEvent(
                    t_judge - 120, t_judge + 600, factor=0.3, ramp=300)]),
            ),
        )

        # --- the Figure-1 service topology ------------------------------------
        self.core: ServiceCore = build_core(
            self, k=c.k, n=c.n, report_period=c.report_period)

        # --- the compute plane ------------------------------------------------
        # Real-engine clients offload tabu step batches to this pool;
        # `compute_pool` workers execute the vectorized kernels on real
        # OS processes (none: inline). Outcomes are bit-identical to
        # serial: simulated time is charged from exact op counts, never
        # wall time.
        self.kernel_pool = None
        engine_factory = None
        if c.engine == "real":
            from ..parallel import KernelPool
            from ..ramsey.client import RealEngine

            self.kernel_pool = KernelPool(c.compute_pool)

            def engine_factory() -> RealEngine:
                return RealEngine(
                    max_steps_per_advance=c.max_steps_per_advance,
                    lane=self.kernel_pool)

        factory = model_client_factory(
            self.core,
            work_period=c.work_period,
            report_period=c.report_period,
            engine_factory=engine_factory,
        )

        # --- the seven infrastructures ---------------------------------------
        fabric = (self.env, self.network, self.streams)
        common = dict(ambient=ambient)
        self.unix = UnixPool(
            *fabric, factory, site="paci",
            n_workstations=c.scaled(32), n_mpp_nodes=c.scaled(32),
            with_tera_mta=True, **common)
        self.condor = CondorPool(
            *fabric, factory, site="wisc", n_hosts=c.scaled(120), **common)
        self.nt = NTSupercluster(
            *fabric, factory, site="nt",
            clusters={"ncsa": c.scaled(64), "ucsd": c.scaled(32)},
            startup_sleep_max=40.0, lsf_kill_threshold=45.0, **common)
        self.globus = GlobusSites(
            *fabric, factory, site="globus",
            sites={"isi": c.scaled(6), "anl": c.scaled(6)}, **common)

        legion_routes = {
            "SCH": self.core.scheduler_contacts[0],
            "PST": self.core.persistent_contacts[0],
            "LOG": self.core.logger_contacts[0],
        }
        self.legion = LegionNet(
            *fabric,
            model_client_factory(
                self.core,
                work_period=c.work_period,
                report_period=c.report_period,
                via="legion-gateway/xlate",
            ),
            site="uva",
            n_hosts=c.scaled(20),
            translator_routes=legion_routes,
            **common)
        self.netsolve = NetSolveFarm(
            *fabric, factory, site="utk", n_servers=c.scaled(3), **common)

        def java_rate(t: float) -> float:
            # Overnight trickle; a crowd once the exhibit floor opens.
            base = 1.0 / 1200.0 if t < clock_to_offset(8, 0) else 1.0 / 300.0
            return base * max(c.scale, 0.05)

        self.java = JavaApplets(
            *fabric, factory, site="internet",
            rate_fn=java_rate, session_mean=30 * 60.0, jit_fraction=0.5,
            **common)

        self.adapters: list[InfraAdapter] = [
            self.unix, self.condor, self.nt, self.globus,
            self.legion, self.netsolve, self.java,
        ]

        self.sampler = HostCountSampler(
            self.env, self.adapters, start=0.0, width=c.bucket, n=c.n_buckets)

    def run(self) -> SC98Results:
        self.network.start()
        for adapter in self.adapters:
            adapter.deploy()
        self.sampler.start_sampling()
        try:
            self.env.run(until=self.config.duration)
        finally:
            self.close()
        return self.results()

    def close(self) -> None:
        """Release the compute pool's worker processes."""
        if self.kernel_pool is not None:
            self.kernel_pool.close()

    def results(self) -> SC98Results:
        c = self.config
        total, per_infra = collect_rate_series(
            self.core.loggers, start=0.0, width=c.bucket, n=c.n_buckets)
        series = SeriesBundle(
            times=np.arange(c.n_buckets) * c.bucket,
            total_rate=total,
            rate_by_infra=per_infra,
            hosts_by_infra=self.sampler.counts_by_infra(),
        )
        return SC98Results(
            config=c,
            series=series,
            lsf_kills=self.nt.lsf_kills,
            condor_reclamations=self.condor.reclamations,
            legion_translated=self.legion.translator.translated
            if self.legion.translator else 0,
            gossip_stats=[g.stats for g in self.core.gossips],
            scheduler_stats=[s.stats for s in self.core.schedulers],
        )


def build_sc98(config: Optional[SC98Config] = None) -> SC98World:
    return SC98World(config or SC98Config())

"""The SC98 High-Performance Computing Challenge scenario (§4).

Builds the full experiment the paper reports: the Figure-1 service
topology, all seven infrastructure adapters, the ambient-load story of
the twelve hours leading up to the judging (23:36:56 → 11:36:56 PST), and
the measurement plane that regenerates Figures 2, 3(a–c) and 4(a–c).

The judging-time forcing function follows §4.1: at 11:00 competing
projects claimed resources and SCInet load spiked, halving-and-worse the
application's deliverable compute and inflating network latencies; by
11:10 (the live demonstration) conditions had partially recovered, but
the floor stayed busier than overnight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.telemetry import Telemetry
from ..infra.base import InfraAdapter
from ..infra.condor import CondorPool
from ..infra.globus import GlobusSites
from ..infra.java import JavaApplets
from ..infra.legion import LegionNet
from ..infra.netsolve import NetSolveFarm
from ..infra.nt import NTSupercluster
from ..infra.unixpool import UnixPool
from ..simgrid.engine import Environment
from ..simgrid.load import ComposedLoad, EventSchedule, MeanRevertingLoad, ScheduledEvent
from ..simgrid.network import Network
from ..simgrid.rand import RngStreams
from .metrics import HostCountSampler, SeriesBundle, collect_rate_series
from .scenario import ServiceCore, build_core, model_client_factory

__all__ = ["SC98Config", "SC98World", "build_sc98", "clock_to_offset", "offset_to_clock"]

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
    judging: bool = True
    #: Client compute engine: "model" burns simulated cycles (SC98-scale
    #: runs), "real" executes the op-counted search kernels.
    engine: str = "model"
    #: Compute-lane workers for the real engine (0 = inline lane, the
    #: default substrate). Kernel results are bit-identical either way,
    #: so this knob changes wall-clock speed only — never outcomes.
    compute_pool: int = 0
    #: Step cap per real-engine advance (lowered for smoke runs).
    max_steps_per_advance: int = 2000
    #: Ablation A1: forecast-driven vs static service time-outs.
    dynamic_timeouts: bool = True
    #: Ablation A2: place schedulers inside the Condor pool.
    condor_scheduler_in_pool: bool = False
    #: Ablation A5: NT startup sleep spread (seconds).
    nt_startup_sleep_max: float = 40.0
    nt_lsf_kill_threshold: float = 45.0

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


class SC98World:
    """A fully wired SC98 experiment ready to run."""

    def __init__(self, config: SC98Config,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.config = config
        self.env = Environment()
        self.streams = RngStreams(seed=config.seed)
        # Shared world registry/tracer (drivers inherit via the network).
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        c = config

        # --- ambient stories -------------------------------------------------
        judging_events = []
        if c.judging:
            t_judge = clock_to_offset(11, 0)
            t_test = clock_to_offset(9, 36)
            judging_events = [
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
            ]
        self.judging_schedule = EventSchedule(judging_events)

        congestion_events = []
        if c.judging:
            t_judge = clock_to_offset(11, 0)
            congestion_events = [
                # SCInet reconfigured on the fly; latencies ballooned.
                ScheduledEvent(t_judge - 120, t_judge + 600, factor=0.3, ramp=300),
            ]
        self.network = Network(
            self.env,
            self.streams,
            base_latency=0.08,
            jitter=0.3,
            congestion_model=ComposedLoad(
                MeanRevertingLoad(mean=0.85, sigma=0.002),
                EventSchedule(congestion_events),
            ),
        )
        self.network.attach_telemetry(self.telemetry)

        # --- the Figure-1 service topology ------------------------------------
        self.core: ServiceCore = build_core(
            self.env,
            self.network,
            self.streams,
            n_schedulers=3,
            n_gossips=3,
            n_loggers=2,
            n_persistents=1,
            k=c.k,
            n=c.n,
            report_period=c.report_period,
        )
        for gossip in self.core.gossips:
            gossip.dynamic_timeouts = c.dynamic_timeouts

        # --- the compute plane ------------------------------------------------
        # Real-engine clients offload tabu step batches to this lane;
        # `compute_pool` workers execute the vectorized kernels on real
        # OS processes. Outcomes are bit-identical to serial: simulated
        # time is charged from exact op counts, never wall time.
        self.compute_lane = None
        engine_factory = None
        if c.engine == "real":
            from ..parallel import make_lane
            from ..ramsey.client import RealEngine

            self.compute_lane = make_lane(
                c.compute_pool, clock=lambda: self.env.now)

            def engine_factory() -> RealEngine:
                return RealEngine(
                    max_steps_per_advance=c.max_steps_per_advance,
                    lane=self.compute_lane)

        factory = model_client_factory(
            self.core,
            work_period=c.work_period,
            report_period=c.report_period,
            engine_factory=engine_factory,
        )

        # --- the seven infrastructures ---------------------------------------
        common = dict(ambient=self.judging_schedule)
        self.unix = UnixPool(
            self.env, self.network, self.streams, factory, site="paci",
            n_workstations=c.scaled(32), n_mpp_nodes=c.scaled(32),
            with_tera_mta=True, **common)
        self.condor = CondorPool(
            self.env, self.network, self.streams, factory, site="wisc",
            n_hosts=c.scaled(120), **common)
        self.nt = NTSupercluster(
            self.env, self.network, self.streams, factory, site="nt",
            clusters={"ncsa": c.scaled(64), "ucsd": c.scaled(32)},
            startup_sleep_max=c.nt_startup_sleep_max,
            lsf_kill_threshold=c.nt_lsf_kill_threshold,
            **common)
        self.globus = GlobusSites(
            self.env, self.network, self.streams, factory, site="globus",
            sites={"isi": c.scaled(6), "anl": c.scaled(6)}, **common)

        legion_routes = {
            "SCH": self.core.scheduler_contacts[0],
            "PST": self.core.persistent_contacts[0],
            "LOG": self.core.logger_contacts[0],
        }
        self.legion = LegionNet(
            self.env, self.network, self.streams,
            model_client_factory(
                self.core,
                work_period=c.work_period,
                report_period=c.report_period,
                scheduler_override=["legion-gateway/xlate"],
                logger_override=["legion-gateway/xlate"],
                persistent_override="legion-gateway/xlate",
            ),
            site="uva",
            n_hosts=c.scaled(20),
            translator_routes=legion_routes,
            **common)
        self.netsolve = NetSolveFarm(
            self.env, self.network, self.streams, factory, site="utk",
            n_servers=c.scaled(3), **common)

        def java_rate(t: float) -> float:
            # Overnight trickle; a crowd once the exhibit floor opens.
            base = 1.0 / 1200.0 if t < clock_to_offset(8, 0) else 1.0 / 300.0
            return base * max(c.scale, 0.05)

        self.java = JavaApplets(
            self.env, self.network, self.streams, factory, site="internet",
            rate_fn=java_rate, session_mean=30 * 60.0, jit_fraction=0.5,
            **common)

        self.adapters: list[InfraAdapter] = [
            self.unix, self.condor, self.nt, self.globus,
            self.legion, self.netsolve, self.java,
        ]

        if c.condor_scheduler_in_pool:
            self._move_schedulers_into_condor_pool()

        self.sampler = HostCountSampler(
            self.env, self.adapters, start=0.0, width=c.bucket, n=c.n_buckets)

    def _move_schedulers_into_condor_pool(self) -> None:
        """Ablation A2: schedulers live on (reclaimable) Condor hosts.

        Deployed during :meth:`run` after the Condor hosts exist; clients
        are rewired to the in-pool contacts."""
        self._condor_sched_pending = True

    def run(self) -> SC98Results:
        self.network.start()
        for adapter in self.adapters:
            adapter.deploy()
        if getattr(self, "_condor_sched_pending", False):
            self._deploy_condor_schedulers()
        self.sampler.start_sampling()
        if self.compute_lane is not None and self.compute_lane.workers > 0:
            # Harvest pool completions (and refresh queue-depth gauges)
            # at every event boundary while the world runs.
            self.env.drain_hook = self.compute_lane.drain
        try:
            self.env.run(until=self.config.duration)
        finally:
            self.env.drain_hook = None
            self.close()
        return self.results()

    def close(self) -> None:
        """Release the compute lane (worker processes, shared memory)."""
        if self.compute_lane is not None:
            self.compute_lane.close()

    def _deploy_condor_schedulers(self) -> None:
        from ..core.services.scheduler import SchedulerServer
        from ..core.simdriver import SimDriver
        from ..ramsey.tasks import unit_generator
        from ..core.services.scheduler import QueueWorkSource

        contacts = []
        for i, host in enumerate(self.condor.hosts[: len(self.core.schedulers)]):
            work = QueueWorkSource(generator=unit_generator(
                self.config.k, self.config.n, base_seed=5000 + i, ops_budget=1e12))
            sched = SchedulerServer(
                f"condor-sched{i}", work, report_period=self.config.report_period)
            SimDriver(self.env, self.network, host, "sched", sched, self.streams).start()
            self.core.schedulers.append(sched)
            contacts.append(f"{host.name}/sched")
        # Rewire: future clients use only the in-pool schedulers.
        self.core.scheduler_contacts = contacts

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

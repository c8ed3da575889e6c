"""The chaos scenario matrix: attacking the stack the way SC98 did.

Three profiles, each a :class:`~repro.simgrid.faults.FaultPlan` against a
reduced Figure-1 world running *real* search kernels on small Ramsey
targets (n=4, k in {8, 9} — counter-examples are abundant below
R(4,4)=18, so persistent state actually accumulates and its survival can
be asserted):

* ``crash-heavy`` — machines die and reboot mid-run, including a Gossip
  mid-sync and the persistent state manager itself; recovery must lose
  no stored counter-example;
* ``partition-heavy`` — the network splits into site cliques twice and
  heals; the Gossip pool must re-merge (``resync_time``);
* ``infra-loss`` — whole infrastructures go dark and return (the Legion
  anecdote of §5), under duplicated/delayed traffic.

Every run is fully deterministic under its seed: the same
:class:`ChaosConfig` twice produces byte-identical reports, which is what
the tier-1 suite pins by SHA-256. Run one from the command line::

    PYTHONPATH=src python -m repro.experiments.chaos --profile crash-heavy
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from typing import Generator, Optional

from ..core.component import Component
from ..core.services.persistent import ValidationError
from ..core.simdriver import SimDriver
from ..core.telemetry import Telemetry
from ..infra.netsolve import NetSolveFarm
from ..infra.unixpool import UnixPool
from ..ramsey.client import RealEngine
from ..ramsey.verify import verify_counter_example_object
from ..simgrid.engine import Environment
from ..simgrid.faults import FaultPlan, HostCrash
from ..simgrid.network import Network
from ..simgrid.rand import RngStreams
from .scenario import ServiceCore, build_core, model_client_factory

__all__ = ["ChaosConfig", "ChaosReport", "ChaosWorld", "PROFILES",
           "build_plan", "run_chaos", "run_chaos_matrix"]

PROFILES = ("crash-heavy", "partition-heavy", "infra-loss")


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one chaos run (defaults sized for tests and CI)."""

    seed: int = 4242
    duration: float = 2400.0
    #: Small targets with plentiful counter-examples (R(4,4)=18);
    #: scheduler i mints units for ks[i].
    n: int = 4
    ks: tuple[int, ...] = (8, 9)
    n_schedulers: int = 2
    n_gossips: int = 3
    unit_ops_budget: float = 4e5
    work_period: float = 20.0
    report_period: float = 60.0
    gossip_poll_period: float = 60.0
    gossip_sync_period: float = 45.0
    n_workstations: int = 4
    n_mpp_nodes: int = 2
    n_netsolve: int = 2
    engine_max_steps: int = 400
    #: Cadence of the post-heal convergence monitor.
    sample_period: float = 15.0


def build_plan(profile: str, cfg: ChaosConfig) -> FaultPlan:
    """The deterministic fault schedule for one profile."""
    plan = FaultPlan()
    if profile == "crash-heavy":
        # Background packet loss while machines die and reboot; the
        # Gossip crash lands mid-sync, the persistent-store crash tests
        # that reliable checkpoints ride out the outage.
        #
        # The t=0.02s crash lands between a client's first HELLO leaving
        # and the scheduler's reliable SCH_WORK reply arriving (latency
        # floor ~50 ms), so the assignment is guaranteed to retransmit
        # into a dead host, give up, and requeue — under tracing, that is
        # the fault → drop → retransmit → give-up → requeue span chain
        # the observability smoke asserts on.
        plan.crash(at=0.02, host="unix-ws0", reboot_after=120.0)
        plan.chaos(at=250.0, duration=600.0, drop=0.05)
        plan.crash(at=300.0, host="gossip1", reboot_after=240.0)
        plan.crash(at=350.0, host="unix-ws0", reboot_after=300.0)
        plan.crash(at=500.0, host="unix-ws1", reboot_after=400.0)
        plan.crash(at=650.0, host="unix-mpp0", reboot_after=300.0)
        plan.crash(at=700.0, host="netsolve-0", reboot_after=350.0)
        plan.crash(at=800.0, host="pst0", reboot_after=180.0)
    elif profile == "partition-heavy":
        plan.chaos(at=250.0, duration=800.0, delay=0.2, delay_max=3.0)
        plan.partition(at=300.0,
                       groups=[["ucsd", "paci", "paci-mpp"], ["utk", "uva"]],
                       heal_after=400.0)
        plan.partition(at=900.0,
                       groups=[["ucsd", "utk"], ["uva", "paci", "paci-mpp"]],
                       heal_after=300.0)
    elif profile == "infra-loss":
        plan.chaos(at=300.0, duration=500.0, duplicate=0.15, delay=0.1,
                   delay_max=2.0)
        plan.outage(at=400.0, infra="netsolve", restore_after=500.0)
        plan.outage(at=900.0, infra="unix", restore_after=400.0)
    else:
        raise ValueError(f"unknown chaos profile {profile!r} "
                         f"(want one of {PROFILES})")
    return plan


@dataclass
class ChaosReport:
    """Recovery metrics for one run; ``to_dict`` is JSON- and
    diff-stable so same-seed reruns compare byte-identical."""

    profile: str
    seed: int
    duration: float
    faults: dict = field(default_factory=dict)
    counter_example_keys: list[str] = field(default_factory=list)
    counter_examples_preserved: int = 0
    counter_examples_corrupted: int = 0
    work_lost: int = 0
    units_assigned: int = 0
    units_completed: int = 0
    resync_time: Optional[float] = None
    clients_started: int = 0
    clients_lost: int = 0
    active_hosts_end: int = 0
    reliable: dict = field(default_factory=dict)
    network: dict = field(default_factory=dict)
    persistent: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "duration": self.duration,
            "faults": dict(self.faults),
            "counter_example_keys": list(self.counter_example_keys),
            "counter_examples_preserved": self.counter_examples_preserved,
            "counter_examples_corrupted": self.counter_examples_corrupted,
            "work_lost": self.work_lost,
            "units_assigned": self.units_assigned,
            "units_completed": self.units_completed,
            "resync_time": self.resync_time,
            "clients_started": self.clients_started,
            "clients_lost": self.clients_lost,
            "active_hosts_end": self.active_hosts_end,
            "reliable": dict(self.reliable),
            "network": dict(self.network),
            "persistent": dict(self.persistent),
        }


class ChaosWorld:
    """A reduced EveryWare world with a fault plan armed against it."""

    def __init__(
        self,
        profile: str,
        cfg: Optional[ChaosConfig] = None,
        telemetry: Optional[Telemetry] = None,
        trace: bool = False,
    ) -> None:
        self.profile = profile
        self.cfg = cfg = cfg or ChaosConfig()
        self.env = Environment()
        self.streams = RngStreams(seed=cfg.seed)
        # One shared metrics registry + tracer for the whole world; every
        # driver inherits it through the network (``trace=True`` turns the
        # causal tracer on — note the trace header changes wire bytes, so
        # traced and untraced runs diverge; determinism holds per mode).
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        if trace:
            self.telemetry.tracer.enabled = True
        self.network = Network(self.env, self.streams,
                               base_latency=0.05, jitter=0.2)
        self.network.attach_telemetry(self.telemetry)
        self.core: ServiceCore = build_core(
            self.env, self.network, self.streams,
            n_schedulers=cfg.n_schedulers,
            n_gossips=cfg.n_gossips,
            n_loggers=1,
            n_persistents=1,
            n=cfg.n,
            ks=list(cfg.ks),
            unit_ops_budget=cfg.unit_ops_budget,
            report_period=cfg.report_period,
            gossip_poll_period=cfg.gossip_poll_period,
            gossip_sync_period=cfg.gossip_sync_period,
        )
        factory = model_client_factory(
            self.core,
            work_period=cfg.work_period,
            report_period=cfg.report_period,
            engine_factory=lambda: RealEngine(
                max_steps_per_advance=cfg.engine_max_steps),
        )
        self.unix = UnixPool(
            self.env, self.network, self.streams, factory, site="paci",
            n_workstations=cfg.n_workstations,
            n_mpp_nodes=cfg.n_mpp_nodes,
            with_tera_mta=False,
        )
        self.netsolve = NetSolveFarm(
            self.env, self.network, self.streams, factory, site="utk",
            n_servers=cfg.n_netsolve,
        )
        self.adapters = [self.unix, self.netsolve]
        for adapter in self.adapters:
            adapter.deploy()
        self.network.start()

        self.plan = build_plan(profile, cfg)
        self.plan.install(self.env, self.network, adapters=self.adapters)
        self._arm_service_supervisor()
        self.resync_time: Optional[float] = None
        self._arm_resync_monitor()

    # -- service supervision ------------------------------------------------
    def _service_components(self) -> dict[str, tuple[Component, str]]:
        m: dict[str, tuple[Component, str]] = {}
        for i, g in enumerate(self.core.gossips):
            m[f"gossip{i}"] = (g, "gossip")
        for i, s in enumerate(self.core.schedulers):
            m[f"sched{i}"] = (s, "sched")
        for i, lg in enumerate(self.core.loggers):
            m[f"logger{i}"] = (lg, "log")
        for i, p in enumerate(self.core.persistents):
            m[f"pst{i}"] = (p, "pst")
        return m

    def _arm_service_supervisor(self) -> None:
        """Service hosts have no adapter to relaunch their process after
        a planned reboot, so schedule the restart explicitly — the
        component object survives with all of its in-memory state, which
        is exactly what the crash-recovery assertions exercise."""
        services = self._service_components()
        for inj in self.plan.injectors:
            if not isinstance(inj, HostCrash) or inj.reboot_after is None:
                continue
            entry = services.get(inj.host)
            if entry is None:
                continue
            component, port = entry
            self.env.process(self._relaunch_service(
                inj.host, component, port, inj.at + inj.reboot_after + 1.0))

    def _relaunch_service(self, host_name: str, component: Component,
                          port: str, at: float) -> Generator:
        yield self.env.timeout(at)
        host = self.network.host(host_name)
        if not host.up:
            return
        driver = SimDriver(self.env, self.network, host, port,
                           component, self.streams)
        driver.start()
        self.core.service_drivers[driver.endpoint.contact] = driver

    # -- recovery monitoring ---------------------------------------------------
    def _gossips_converged(self) -> bool:
        """All live Gossips agree on the pool membership."""
        views = []
        for contact in self.core.gossip_contacts:
            driver = self.core.service_drivers.get(contact)
            if driver is None or not driver.running:
                continue
            gossip = driver.component
            if getattr(gossip, "clique", None) is None:
                return False
            views.append(tuple(sorted(gossip.clique.members)))
        return len(views) >= 2 and len(set(views)) == 1

    def _arm_resync_monitor(self) -> None:
        heal_at = self.plan.last_heal_time()
        if heal_at is None or heal_at >= self.cfg.duration:
            return

        def monitor() -> Generator:
            yield self.env.timeout(heal_at)
            while self.env.now < self.cfg.duration:
                yield self.env.timeout(self.cfg.sample_period)
                if self._gossips_converged():
                    self.resync_time = self.env.now - heal_at
                    return

        self.env.process(monitor())

    # -- running / reporting ------------------------------------------------
    def run(self) -> "ChaosReport":
        self.env.run(until=self.cfg.duration)
        return self.report()

    def report(self) -> "ChaosReport":
        pst = self.core.persistents[0]
        keys = [k for k in pst.backend.keys() if k.startswith("ramsey/")]
        preserved = corrupted = 0
        for key in keys:
            obj = pst.backend.get(key)
            try:
                verify_counter_example_object(obj or {})
                preserved += 1
            except ValidationError:
                corrupted += 1

        reliable = {"tracked": 0, "retries": 0, "resolved": 0, "give_ups": 0}
        drivers = list(self.core.service_drivers.values())
        for adapter in self.adapters:
            drivers.extend(adapter.drivers[name]
                           for name in sorted(adapter.drivers))
        for driver in drivers:
            tracker = driver.tracker
            if tracker is None:
                continue
            reliable["tracked"] += tracker.tracked
            reliable["retries"] += tracker.retries
            reliable["resolved"] += tracker.resolved
            reliable["give_ups"] += tracker.give_ups

        net = self.network.stats
        fs = self.plan.stats
        return ChaosReport(
            profile=self.profile,
            seed=self.cfg.seed,
            duration=self.cfg.duration,
            faults={
                "crashes": fs.crashes, "reboots": fs.reboots,
                "partitions": fs.partitions, "heals": fs.heals,
                "outages": fs.outages, "restores": fs.restores,
                "chaos_windows": fs.chaos_windows, "skipped": fs.skipped,
            },
            counter_example_keys=sorted(keys),
            counter_examples_preserved=preserved,
            counter_examples_corrupted=corrupted,
            work_lost=sum(s.stats.units_requeued for s in self.core.schedulers),
            units_assigned=sum(s.stats.units_assigned for s in self.core.schedulers),
            units_completed=sum(s.stats.units_completed for s in self.core.schedulers),
            resync_time=self.resync_time,
            clients_started=sum(a.clients_started for a in self.adapters),
            clients_lost=sum(a.clients_lost for a in self.adapters),
            active_hosts_end=sum(a.active_host_count() for a in self.adapters),
            reliable=reliable,
            network={
                "delivered": net.delivered,
                "dropped_down": net.dropped_down,
                "dropped_partition": net.dropped_partition,
                "dropped_fault": net.dropped_fault,
                "duplicated_fault": net.duplicated_fault,
                "delayed_fault": net.delayed_fault,
            },
            persistent={"stores": pst.stats.stores, "denials": pst.stats.denials},
        )


def run_chaos(
    profile: str,
    cfg: Optional[ChaosConfig] = None,
    telemetry: Optional[Telemetry] = None,
    trace: bool = False,
) -> ChaosReport:
    """Build, attack, and run one world; return its recovery report.

    Pass a :class:`Telemetry` (or ``trace=True``) to collect the world's
    metrics/spans — e.g. ``repro trace --scenario chaos``."""
    return ChaosWorld(profile, cfg, telemetry=telemetry, trace=trace).run()


def run_chaos_matrix(cfg: Optional[ChaosConfig] = None) -> dict[str, dict]:
    """Run every profile under the same config; reports keyed by profile."""
    return {profile: run_chaos(profile, cfg).to_dict() for profile in PROFILES}


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        description="Run the chaos scenario matrix and print JSON reports.")
    parser.add_argument("--profile", choices=PROFILES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--duration", type=float, default=2400.0)
    args = parser.parse_args(argv)
    cfg = ChaosConfig(seed=args.seed, duration=args.duration)
    if args.profile == "all":
        out = run_chaos_matrix(cfg)
    else:
        out = {args.profile: run_chaos(args.profile, cfg).to_dict()}
    print(json.dumps(out, sort_keys=True, indent=2))


if __name__ == "__main__":
    main()

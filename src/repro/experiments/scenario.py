"""Scenario construction: the Figure-1 service topology plus client wiring.

``build_core`` stands up the application-specific services — scheduling
servers ("S"), Gossips ("G"), persistent state managers ("P"), and
logging servers ("L") — on well-known hosts, and ``model_client_factory``
produces the configured computational clients ("A") that the
infrastructure adapters launch and relaunch according to their own
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.gossip.server import GossipServer
from ..core.gossip.state import ComparatorRegistry
from ..core.services.logging import LoggingServer
from ..core.services.persistent import PersistentStateServer
from ..core.services.scheduler import QueueWorkSource, SchedulerServer
from ..core.simdriver import SimDriver
from ..infra.base import ClientFactory
from ..ramsey.client import (RAMSEY_BEST, ModelEngine, RamseyClient,
                             ramsey_comparator, rotated)
from ..ramsey.tasks import unit_generator
from ..ramsey.verify import counter_example_validator
from ..simgrid.engine import Environment
from ..simgrid.host import Host, HostSpec
from ..simgrid.load import ConstantLoad
from ..simgrid.network import Network
from ..simgrid.rand import RngStreams

__all__ = ["ServiceCore", "build_core", "model_client_factory"]


@dataclass
class ServiceCore:
    """Handles to the deployed well-known services."""

    env: Environment
    network: Network
    streams: RngStreams
    schedulers: list[SchedulerServer] = field(default_factory=list)
    scheduler_contacts: list[str] = field(default_factory=list)
    gossips: list[GossipServer] = field(default_factory=list)
    gossip_contacts: list[str] = field(default_factory=list)
    loggers: list[LoggingServer] = field(default_factory=list)
    logger_contacts: list[str] = field(default_factory=list)
    persistents: list[PersistentStateServer] = field(default_factory=list)
    persistent_contacts: list[str] = field(default_factory=list)
    work_sources: list[QueueWorkSource] = field(default_factory=list)
    service_hosts: list[Host] = field(default_factory=list)
    #: Live service drivers, keyed by "host/port" contact (replaced on
    #: relaunch after a fault-injected reboot).
    service_drivers: dict[str, SimDriver] = field(default_factory=dict)


def build_core(
    env: Environment,
    network: Network,
    streams: RngStreams,
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
    service_sites: Optional[list[str]] = None,
    ks: Optional[list[int]] = None,
) -> ServiceCore:
    """Deploy the well-known services on stable service hosts.

    Services live on dedicated, reliable hosts (the paper stationed its
    Gossips "at well-known addresses around the country" and kept
    persistent state at SDSC).

    ``ks`` optionally gives each scheduler its own problem size
    (scheduler ``i`` mints units for ``ks[i % len(ks)]``); the chaos
    scenarios use it to spread the search over several small targets so
    distinct counter-example keys reach the persistent store.
    """
    core = ServiceCore(env=env, network=network, streams=streams)
    sites = service_sites or ["ucsd", "utk", "uva", "ncsa"]

    def service_host(name: str, idx: int) -> Host:
        host = Host(env, HostSpec(
            name=name,
            site=sites[idx % len(sites)],
            infra="service",
            speed=2e7,
            load_model=ConstantLoad(1.0),
        ), streams)
        network.add_host(host)
        host.start()
        core.service_hosts.append(host)
        return host

    comparators = ComparatorRegistry()
    comparators.register(RAMSEY_BEST, ramsey_comparator)

    gossip_contacts = [f"gossip{i}/gossip" for i in range(n_gossips)]
    for i in range(n_gossips):
        host = service_host(f"gossip{i}", i)
        gossip = GossipServer(
            f"gossip{i}",
            well_known=gossip_contacts,
            comparators=comparators,
            poll_period=gossip_poll_period,
            sync_period=gossip_sync_period,
        )
        driver = SimDriver(env, network, host, "gossip", gossip, streams)
        driver.start()
        core.service_drivers[driver.endpoint.contact] = driver
        core.gossips.append(gossip)
    core.gossip_contacts = gossip_contacts

    for i in range(n_schedulers):
        host = service_host(f"sched{i}", i)
        sched_k = ks[i % len(ks)] if ks else k
        work = QueueWorkSource(generator=unit_generator(
            sched_k, n, base_seed=1000 * (i + 1), ops_budget=unit_ops_budget))
        sched = SchedulerServer(
            f"sched{i}", work,
            report_period=report_period,
            reap_period=2 * report_period,
        )
        driver = SimDriver(env, network, host, "sched", sched, streams)
        driver.start()
        core.service_drivers[driver.endpoint.contact] = driver
        core.schedulers.append(sched)
        core.work_sources.append(work)
        core.scheduler_contacts.append(f"sched{i}/sched")

    for i in range(n_loggers):
        host = service_host(f"logger{i}", i)
        logger = LoggingServer(f"logger{i}")
        driver = SimDriver(env, network, host, "log", logger, streams)
        driver.start()
        core.service_drivers[driver.endpoint.contact] = driver
        core.loggers.append(logger)
        core.logger_contacts.append(f"logger{i}/log")

    for i in range(n_persistents):
        host = service_host(f"pst{i}", i)
        pst = PersistentStateServer(f"pst{i}")
        pst.add_validator(counter_example_validator)
        driver = SimDriver(env, network, host, "pst", pst, streams)
        driver.start()
        core.service_drivers[driver.endpoint.contact] = driver
        core.persistents.append(pst)
        core.persistent_contacts.append(f"pst{i}/pst")

    return core


def model_client_factory(
    core: ServiceCore,
    work_period: float = 150.0,
    report_period: float = 150.0,
    engine_factory: Optional[Callable[[], object]] = None,
    scheduler_override: Optional[list[str]] = None,
    logger_override: Optional[list[str]] = None,
    persistent_override: Optional[str] = None,
) -> ClientFactory:
    """A ClientFactory wiring model-engine clients into the service core.

    Clients spread across schedulers and loggers round-robin by index;
    overrides support special routing (e.g. Legion's translator)."""

    def factory(host: Host, infra: str, idx: int) -> RamseyClient:
        schedulers = scheduler_override or rotated(core.scheduler_contacts, idx)
        loggers = logger_override or [core.logger_contacts[idx % len(core.logger_contacts)]]
        persistent = persistent_override or (
            core.persistent_contacts[0] if core.persistent_contacts else None)
        engine = engine_factory() if engine_factory is not None else ModelEngine()
        return RamseyClient(
            name=f"{infra}-cli{idx}",
            schedulers=schedulers,
            engine=engine,
            infra=infra,
            loggers=loggers,
            persistent=persistent,
            gossip_well_known=core.gossip_contacts,
            work_period=work_period,
            report_period=report_period,
            hello_retry=60.0,
            seed=idx,
        )

    return factory

"""Big-pool world builder: thousand-host Gossip pools for scale runs.

The paper ran EveryWare on a few dozen machines; the point of the
digest/delta sync plane (DESIGN §15) is that the *same* Gossip code keeps
working when the pool grows by two orders of magnitude. This module
builds those worlds: ``build_pool`` stands up 64–10,000 hosts spread
across simulated sites, one :class:`~repro.core.gossip.GossipServer` per
host, pre-seeded to a converged state so experiments measure *incremental
divergence* (what anti-entropy is for), not a start-up flood.

Scale choices worth knowing about:

* every server is constructed with the full contact list as its
  ``well_known`` universe, and the clique token cadence is stretched so
  membership is established by one initial token round — at a thousand
  nodes the O(pool)-sized token is the one message that cannot ride the
  digest plane, so it is sent rarely and liveness is tracked by the SWIM
  suspicion tables instead;
* seeded records are **shared** frozen :class:`StateRecord` objects
  (memory stays O(hosts + records), not O(hosts x records));
* ``run_until_converged`` drives the simulation in sync-period steps and
  declares convergence when every member's digest root agrees — the same
  O(1) root comparison the protocol itself uses;
* ``export_state`` returns a deterministic JSON-able snapshot, so two
  same-seed runs must produce byte-identical exports (the reproducibility
  gate used by ``benchmarks/bench_gossip.py`` and pinned by
  ``tests/experiments/test_bigpool.py::test_ci_64_host_export_is_pinned_byte_for_byte``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from ..core.gossip.server import GossipServer
from ..core.gossip.state import ComparatorRegistry, StateRecord
from ..core.simdriver import SimDriver
from ..simgrid.engine import Environment
from ..simgrid.faults import FaultPlan
from ..simgrid.host import Host, HostSpec
from ..simgrid.load import ConstantLoad
from ..simgrid.network import Network
from ..simgrid.rand import RngStreams

__all__ = [
    "PoolConfig",
    "BigPool",
    "build_pool",
    "inject_write",
    "run_until_converged",
    "export_state",
    "export_json",
    "gossip_rollup",
    "churn_plan",
]


@dataclass
class PoolConfig:
    """Knobs for a scale world. Defaults build a 1,024-host pool."""

    n_hosts: int = 1024
    n_sites: int = 16
    #: Pre-seeded (already converged) state records per member.
    n_records: int = 32
    seed: int = 11
    fanout: int = 2
    shard_size: int = 32
    intershard_period: int = 2
    poll_period: float = 30.0
    sync_period: float = 10.0
    #: Clique cadence: one probe/token round near t=0 establishes the
    #: membership view; after that SWIM owns liveness. Keep both larger
    #: than the experiment horizon unless clique dynamics are the thing
    #: under test.
    token_period: float = 600.0
    token_timeout: float = 1500.0
    jitter: float = 0.0


@dataclass
class BigPool:
    """A built world plus handles to every pool member."""

    config: PoolConfig
    env: Environment
    network: Network
    streams: RngStreams
    servers: list[GossipServer] = field(default_factory=list)
    contacts: list[str] = field(default_factory=list)
    hosts: list[Host] = field(default_factory=list)
    drivers: list[SimDriver] = field(default_factory=list)
    seeded: list[StateRecord] = field(default_factory=list)

    def run(self, until: float) -> None:
        self.env.run(until=until)

    def active_servers(self) -> list[GossipServer]:
        """Members whose driver process is still alive — a crashed host's
        frozen digest must not count against pool convergence."""
        return [g for g, d in zip(self.servers, self.drivers) if d.running]

    def roots(self) -> list[int]:
        return [g.digest.root for g in self.active_servers()]

    def converged(self) -> bool:
        roots = self.roots()
        return all(r == roots[0] for r in roots)


def build_pool(config: Optional[PoolConfig] = None, **overrides) -> BigPool:
    """Stand up the world described by ``config`` (keyword overrides
    build a config in place: ``build_pool(n_hosts=256)``)."""
    if config is None:
        config = PoolConfig(**overrides)
    elif overrides:
        raise ValueError("pass either a PoolConfig or keyword overrides")
    env = Environment()
    streams = RngStreams(seed=config.seed)
    network = Network(env, streams, jitter=config.jitter)
    pool = BigPool(config=config, env=env, network=network, streams=streams)
    width = len(str(max(config.n_hosts - 1, 1)))
    contacts = [f"pg{i:0{width}d}/gossip" for i in range(config.n_hosts)]
    comparators = ComparatorRegistry()
    records = [
        StateRecord(mtype=f"POOL_STATE_{j:04d}",
                    data={"v": j, "blob": "x" * 48},
                    stamp=0.0, origin="seed/gossip", seq=1)
        for j in range(config.n_records)
    ]
    for i in range(config.n_hosts):
        name = f"pg{i:0{width}d}"
        host = Host(env, HostSpec(
            name=name,
            site=f"site{i % config.n_sites:02d}",
            infra="pool",
            load_model=ConstantLoad(1.0),
        ), streams)
        network.add_host(host)
        pool.hosts.append(host)
        server = GossipServer(
            name,
            well_known=contacts,
            comparators=comparators,
            poll_period=config.poll_period,
            sync_period=config.sync_period,
            token_period=config.token_period,
            token_timeout=config.token_timeout,
            fanout=config.fanout,
            shard_size=config.shard_size,
            intershard_period=config.intershard_period,
        )
        # Shared record objects: every member starts converged.
        server.seed_records(records)
        driver = SimDriver(env, network, host, "gossip", server, streams)
        driver.start()
        pool.drivers.append(driver)
        pool.servers.append(server)
    pool.contacts = contacts
    pool.seeded = records
    return pool


def inject_write(pool: BigPool, node: int = 0, tag: str = "POOL_HOT",
                 seq: int = 1) -> StateRecord:
    """Make one member adopt a fresh record (a local write), hot for
    rumor-mongering. Everything downstream — how long until every root
    agrees again — is the measurement."""
    server = pool.servers[node % len(pool.servers)]
    record = StateRecord(
        mtype=tag,
        data={"writer": server.name, "seq": seq},
        stamp=pool.env.now,
        origin=f"{server.name}/gossip",
        seq=seq,
    )
    server.seed_records([record], hot=True)
    return record


def run_until_converged(
    pool: BigPool,
    deadline: float,
    step: Optional[float] = None,
) -> dict:
    """Advance the simulation until every member's digest root agrees
    (checked once per ``step``, default the sync period). Returns
    ``{"converged", "time", "rounds"}`` with time/rounds measured from
    the call, in sync-round units."""
    step = step if step is not None else pool.config.sync_period
    start = pool.env.now
    while pool.env.now < start + deadline:
        pool.run(until=min(pool.env.now + step, start + deadline))
        if pool.converged():
            elapsed = pool.env.now - start
            return {"converged": True, "time": elapsed,
                    "rounds": elapsed / pool.config.sync_period}
    elapsed = pool.env.now - start
    return {"converged": pool.converged(), "time": elapsed,
            "rounds": elapsed / pool.config.sync_period}


_STAT_FIELDS = (
    "polls_sent", "states_received", "updates_sent", "records_adopted",
    "comparisons", "evictions", "syncs_sent", "digest_rounds",
    "digests_sent", "digest_acks", "deltas_sent", "delta_records",
    "sync_comparisons", "bytes_sent", "bytes_full_equiv",
    "tombstones_created", "tombstones_applied", "suspicions",
    "refutations", "deaths",
)


def export_state(pool: BigPool) -> dict:
    """Deterministic snapshot of the pool: per-member digest identity and
    the aggregate protocol counters. Two same-seed runs of the same
    scenario must serialize this identically (``json.dumps(...,
    sort_keys=True)``) — the reproducibility gate."""
    members = [
        {"contact": contact, "root": server.digest.root,
         "count": server.digest.count,
         "up": driver.running,
         "members": len(server.pool_members()),
         "registry": sorted(server.registry),
         "tombstones": sorted(server.tombstones)}
        for contact, server, driver in zip(
            pool.contacts, pool.servers, pool.drivers)
    ]
    totals = {name: sum(getattr(g.stats, name) for g in pool.servers)
              for name in _STAT_FIELDS}
    totals["bytes_saved"] = sum(g.stats.bytes_saved for g in pool.servers)
    return {
        "n_hosts": pool.config.n_hosts,
        "seed": pool.config.seed,
        "sync_mode": "digest",
        "now": pool.env.now,
        "members": members,
        "totals": totals,
    }


def export_json(pool: BigPool) -> str:
    return json.dumps(export_state(pool), sort_keys=True,
                      separators=(",", ":"))


def gossip_rollup(servers: list[GossipServer]) -> dict:
    """Pool-wide sync-plane rollup in the shape ``POST /telemetry/gossip``
    accepts (:meth:`repro.control.client.GatewayClient.publish_gossip`):
    aggregate GossipStats plus per-state suspicion transition counts, so
    a live gateway's Prometheus ``/metrics`` can expose the anti-entropy
    plane of a pool running in another process."""
    suspicion: dict[str, int] = {}
    for server in servers:
        if server.suspicion is None:
            continue
        for state, count in server.suspicion.transitions.items():
            suspicion[state] = suspicion.get(state, 0) + count
    return {
        "digest_rounds": sum(g.stats.digest_rounds for g in servers),
        "delta_records": sum(g.stats.delta_records for g in servers),
        "bytes_sent": sum(g.stats.bytes_sent for g in servers),
        "bytes_saved": sum(g.stats.bytes_saved for g in servers),
        "tombstones_created": sum(
            g.stats.tombstones_created for g in servers),
        "evictions": sum(g.stats.evictions for g in servers),
        "members": len(servers),
        "registered": sum(len(g.registry) for g in servers),
        "suspicion": suspicion,
    }


def churn_plan(config: PoolConfig, start: float = 60.0,
               n_crashes: int = 4, reboot_after: float = 120.0,
               partition_at: Optional[float] = None,
               heal_after: float = 90.0) -> FaultPlan:
    """A deterministic churn schedule for converge-under-churn runs:
    a handful of spread-out host crashes (with reboots) plus one
    site-level partition/heal. Hosts are picked by index arithmetic, not
    randomness, so the same config always churns the same way."""
    plan = FaultPlan()
    width = len(str(max(config.n_hosts - 1, 1)))
    stride = max(config.n_hosts // max(n_crashes, 1), 1)
    for c in range(n_crashes):
        idx = (c * stride + stride // 2) % config.n_hosts
        plan.crash(at=start + 10.0 * c, host=f"pg{idx:0{width}d}",
                   reboot_after=reboot_after)
    if partition_at is None:
        partition_at = start + 30.0
    cut = max(config.n_sites // 4, 1)
    island = tuple(f"site{s:02d}" for s in range(cut))
    plan.partition(at=partition_at, groups=[island], heal_after=heal_after)
    return plan

"""Declarative world specs and the bootstrap/discovery manifest.

A :class:`Topology` names the processes an EveryWare world is made of —
which Gossips, schedulers, persistent state managers, logging servers,
and computational clients — plus the world-wide run parameters (problem
size, the clients' wall-clock compute budget, the seed); the periods
every live world shares are module constants.
:func:`build_manifest` turns a topology into a :class:`Manifest`: every
node gets a concrete ``host:port`` contact *before any process exists*
(clients need scheduler/gossip contacts at construction time, Gossips
need the full well-known pool), and each node process reads the manifest
at startup to find itself and everyone else. This is the live analogue of
the paper's "well-known addresses around the country" (§2.3) bootstrap.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from .ports import PortAllocator

__all__ = [
    "ROLES",
    "SITES",
    "NodeSpec",
    "Topology",
    "Manifest",
    "build_manifest",
    "sc98_topology",
    "serve_topology",
]

#: The node roles the deployment plane can stand up (Figure 1's boxes:
#: G = gossip, S = scheduler, P = persistent state, L = logging,
#: A = computational client — plus the control plane's HTTP/JSON job
#: gateway, a scheduler whose work queue is fed by external users).
ROLES = ("gossip", "scheduler", "persistent", "logger", "client", "gateway")

#: Default site labels for per-site delivered-vs-available accounting
#: (DESIGN §14); clients are assigned round-robin. The names are the
#: paper's participating institutions.
SITES = ("ucsd", "utk", "anl", "ncsa")

# Wall-clock run parameters every live world shares (seconds).
#: Ops budget per minted work unit (small: units should complete within
#: a live run so assignment/completion/requeue all happen).
UNIT_OPS_BUDGET = 250_000.0
WORK_PERIOD = 0.25
REPORT_PERIOD = 0.5
HELLO_RETRY = 2.0
GOSSIP_POLL_PERIOD = 1.5
GOSSIP_SYNC_PERIOD = 1.0
#: How often nodes ship telemetry snapshots to the collector.
SHIP_PERIOD = 0.5


@dataclass
class NodeSpec:
    """One process in the world: a name, a role, role-specific options."""

    name: str
    role: str
    #: Role-specific knobs (e.g. ``{"backend_dir": ...}`` for a
    #: persistent node, ``{"infra": "live"}`` for a client). Must be
    #: JSON-safe: specs travel inside the manifest.
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown node role {self.role!r}")


@dataclass
class Topology:
    """A world spec: the node list plus world-wide run parameters."""

    nodes: list[NodeSpec] = field(default_factory=list)
    #: Ramsey search target (small by default: live runs measure the
    #: deployment plane, not the search, so counter-examples should
    #: actually be found within seconds).
    k: int = 8
    n: int = 4
    #: Per-client compute budget, ops of wall-clock second (the live
    #: twin of a simulated host's delivered speed).
    speed: float = 300_000.0
    seed: int = 0

    def named(self, name: str) -> NodeSpec:
        for spec in self.nodes:
            if spec.name == name:
                return spec
        raise KeyError(f"no node named {name!r} in topology")

    def by_role(self, role: str) -> list[NodeSpec]:
        return [spec for spec in self.nodes if spec.role == role]

    def index_of(self, name: str) -> int:
        for i, spec in enumerate(self.nodes):
            if spec.name == name:
                return i
        raise KeyError(f"no node named {name!r} in topology")

    def validate(self) -> None:
        """Reject worlds the node wiring cannot express."""
        names = [spec.name for spec in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate node names in topology")
        if self.by_role("client") and not (
                self.by_role("scheduler") or self.by_role("gateway")):
            raise ValueError("clients need at least one scheduler or "
                             "gateway node")

    def to_dict(self) -> dict:
        return {
            "nodes": [asdict(spec) for spec in self.nodes],
            "params": {
                "k": self.k, "n": self.n, "speed": self.speed,
                "seed": self.seed,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Topology":
        topo = cls(nodes=[NodeSpec(**spec) for spec in d.get("nodes", [])])
        for key, value in d.get("params", {}).items():
            if hasattr(topo, key):
                setattr(topo, key, value)
        return topo


def _world(services: list[NodeSpec], clients: int, gossips: int,
           persistents: int, loggers: int, params: dict) -> Topology:
    """Gossips, ``services``, persistent managers, loggers, then clients
    (services precede clients so a fresh world boots in manifest order),
    with ``params`` overriding :class:`Topology` run parameters."""
    nodes: list[NodeSpec] = []
    nodes += [NodeSpec(f"gossip{i}", "gossip") for i in range(gossips)]
    nodes += services
    nodes += [NodeSpec(f"pst{i}", "persistent") for i in range(persistents)]
    nodes += [NodeSpec(f"logger{i}", "logger") for i in range(loggers)]
    nodes += [NodeSpec(f"cli{i}", "client",
                       options={"infra": "live",
                                "site": SITES[i % len(SITES)]})
              for i in range(clients)]
    topo = Topology(nodes=nodes)
    for key, value in params.items():
        if not hasattr(topo, key):
            raise TypeError(f"unknown topology parameter {key!r}")
        setattr(topo, key, value)
    topo.validate()
    return topo


def sc98_topology(
    clients: int = 4,
    gossips: int = 2,
    schedulers: int = 1,
    persistents: int = 1,
    loggers: int = 1,
    **params,
) -> Topology:
    """The SC98 service topology (Figure 1) as a live world spec.

    Extra keyword arguments override :class:`Topology` run parameters
    (``k=7, speed=2e5, ...``).
    """
    return _world([NodeSpec(f"sched{i}", "scheduler")
                   for i in range(schedulers)],
                  clients, gossips, persistents, loggers, params)


def serve_topology(
    clients: int = 2,
    gossips: int = 1,
    gateways: int = 1,
    persistents: int = 1,
    loggers: int = 1,
    **params,
) -> Topology:
    """The control-plane world: HTTP/JSON gateways in place of the
    self-feeding scheduler. Gateways *are* schedulers downward — clients
    pull externally-submitted jobs over the usual SCH_* protocol — but
    their queues start empty and fill from ``POST /jobs``.

    Extra keyword arguments override :class:`Topology` run parameters.
    """
    return _world([NodeSpec(f"gw{i}", "gateway") for i in range(gateways)],
                  clients, gossips, persistents, loggers, params)


@dataclass
class Manifest:
    """The bootstrap/discovery document every live node reads at startup.

    Maps each node name to its preallocated ``host:port`` contact and
    carries the collector's contact plus the full topology, so a node
    can wire itself (and find all its peers) from this one file.
    """

    topology: Topology
    contacts: dict[str, str]
    collector: str
    #: HTTP contacts for gateway nodes (name -> ``host:port``): a
    #: gateway listens on *two* preallocated ports, lingua franca for
    #: the world and HTTP/JSON for external users.
    http: dict = field(default_factory=dict)

    def contact(self, name: str) -> str:
        return self.contacts[name]

    def contacts_for(self, role: str) -> list[str]:
        """Contacts of every node with ``role``, in topology order."""
        return [self.contacts[s.name] for s in self.topology.by_role(role)]

    def http_contact(self, name: str) -> str:
        return self.http[name]

    def http_contacts(self) -> list[str]:
        """HTTP contacts of every gateway node, in topology order."""
        return [self.http[s.name] for s in self.topology.by_role("gateway")]

    def to_dict(self) -> dict:
        return {
            "topology": self.topology.to_dict(),
            "contacts": dict(self.contacts),
            "collector": self.collector,
            "http": dict(self.http),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Manifest":
        return cls(
            topology=Topology.from_dict(d["topology"]),
            contacts=dict(d["contacts"]),
            collector=str(d.get("collector", "")),
            http=dict(d.get("http", {})),
        )

    def write(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "Manifest":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def build_manifest(
    topology: Topology,
    collector: str,
    host: str = "127.0.0.1",
    allocator: Optional[PortAllocator] = None,
) -> Manifest:
    """Assign every node a concrete contact address.

    When the caller passes an ``allocator`` it owns the release (hold the
    reserved ports until just before the node processes spawn); otherwise
    ports are allocated and released immediately, which is only safe for
    tests that never bind them.
    """
    topology.validate()
    gateways = topology.by_role("gateway")
    own = allocator is None
    alloc = allocator if allocator is not None else PortAllocator(host)
    ports = alloc.allocate(len(topology.nodes) + len(gateways))
    if own:
        alloc.release()
    contacts = {
        spec.name: f"{host}:{port}"
        for spec, port in zip(topology.nodes, ports)
    }
    # Gateways get a second preallocated port for their HTTP listener.
    http = {
        spec.name: f"{host}:{port}"
        for spec, port in zip(gateways, ports[len(topology.nodes):])
    }
    return Manifest(topology=topology, contacts=contacts,
                    collector=collector, http=http)

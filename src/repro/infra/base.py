"""Common machinery for infrastructure adapters.

An adapter owns a pool of simulated hosts and the policy by which Ramsey
clients are (re)started on them — each infrastructure's §5 semantics live
in its adapter subclass: Condor reclaims workstations and kills vanilla
jobs; LSF kills sleepers on the NT Superclusters; Legion restarts
stateless objects elsewhere; Java browsers come and go; and so on.

Adapters expose uniform accounting (`active_host_count`,
`delivered-clients` bookkeeping) that the experiment layer samples for
the host-count figures (Fig. 3b/4b).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from ..core.simdriver import SimDriver
from ..ramsey.client import RamseyClient
from ..simgrid.engine import Environment
from ..simgrid.host import Host, HostSpec
from ..simgrid.load import LoadModel
from ..simgrid.network import Network
from ..simgrid.rand import PrefixedStreams, RngStreams

__all__ = ["InfraAdapter", "ClientFactory"]

#: Builds a configured RamseyClient for (host, adapter name, client index).
ClientFactory = Callable[[Host, str, int], RamseyClient]


class InfraAdapter:
    """Base class: host pool + client lifecycle policy."""

    #: Infrastructure tag recorded on hosts and in perf records.
    name: str = "base"
    #: Mean seconds up and down of each host's failure cycle
    #: (:meth:`_start_failure_cycle`); subclasses with one set both.
    mtbf: float
    mttr: float

    def __init__(
        self,
        env: Environment,
        network: Network,
        streams: RngStreams | PrefixedStreams,
        client_factory: ClientFactory,
        site: str = "remote",
        ambient: Optional[LoadModel] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.streams = streams.child(self.name) if hasattr(streams, "child") else streams
        self.client_factory = client_factory
        self.site = site
        #: Scenario-wide availability disturbance (e.g. the SC98 judging
        #: spike) multiplied into every host's own load model. Must be a
        #: stateless model (EventSchedule) since it is shared across hosts.
        self.ambient = ambient
        self.hosts: list[Host] = []
        self.drivers: dict[str, SimDriver] = {}  # host name -> live client driver
        self.clients_started = 0
        self.clients_lost = 0
        self._rng = self.streams.get("adapter")

    # -- deployment ------------------------------------------------------------
    def deploy(self) -> None:
        """Create hosts and start the infrastructure's processes. Subclasses
        must implement."""
        raise NotImplementedError

    def _add_host(
        self,
        name: str,
        speed: float,
        load_model: LoadModel,
        site: Optional[str] = None,
    ) -> Host:
        if self.ambient is not None:
            from ..simgrid.load import ComposedLoad

            load_model = ComposedLoad(load_model, self.ambient)
        spec = HostSpec(
            name=name,
            site=site or self.site,
            infra=self.name,
            speed=speed,
            load_model=load_model,
            load_period=60.0,
        )
        host = Host(self.env, spec, self.streams)
        self.network.add_host(host)
        host.start()
        self.hosts.append(host)
        return host

    # -- client lifecycle ---------------------------------------------------------
    def launch_client(self, host: Host) -> Optional[SimDriver]:
        """Start a client on ``host`` and watch it for death."""
        if not host.up or host.name in self.drivers:
            return None
        self.clients_started += 1
        client = self.client_factory(host, self.name, self.clients_started)
        driver = SimDriver(self.env, self.network, host, "cli", client, self.streams)
        self.drivers[host.name] = driver
        process = driver.start()

        def watch(_event) -> None:
            if self.drivers.get(host.name) is driver:
                del self.drivers[host.name]
            self.clients_lost += 1
            self.on_client_exit(host)

        assert process.callbacks is not None
        process.callbacks.append(watch)
        return driver

    def on_client_exit(self, host: Host) -> None:
        """Policy hook: called when a client dies (host death or stop)."""

    def relaunch(self, host: Host) -> None:
        """Policy hook: bring a client back to ``host`` once its failure
        cycle has repaired it (each adapter's launch path, started from
        an urgent entry at this instant)."""

    def respawn_later(self, host: Host, delay: float) -> None:
        """Schedule a relaunch attempt after ``delay`` seconds."""
        self.env.start(partial(self._respawn, host), delay)

    def _respawn(self, host: Host, _tag: int) -> None:
        if host.up and host.name not in self.drivers:
            self.launch_client(host)

    # -- failure cycle ------------------------------------------------------------
    def _start_failure_cycle(self, host: Host) -> None:
        """Exponential MTBF/MTTR churn on the host's ``fail:<host>``
        stream; each repair ends in :meth:`relaunch`."""
        rng = self.streams.get(f"fail:{host.name}")
        self.env.start(partial(self._fail, host, rng),
                       float(rng.exponential(self.mtbf)))

    def _fail(self, host: Host, rng, _tag: int) -> None:
        host.go_down("failure")
        self.env.call(partial(self._repair, host, rng),
                      float(rng.exponential(self.mttr)))

    def _repair(self, host: Host, rng, _tag: int) -> None:
        host.go_up()
        self.relaunch(host)
        self.env.call(partial(self._fail, host, rng),
                      float(rng.exponential(self.mtbf)))

    # -- fault injection ---------------------------------------------------------
    def go_dark(self, reason: str = "fault:outage") -> int:
        """Take the whole infrastructure offline at once (§5's Legion
        anecdote: an entire testbed vanishing mid-run). Every up host
        goes down, killing its client. Returns the number of hosts
        downed; :meth:`relight` undoes it."""
        downed = 0
        for host in self.hosts:
            if host.up:
                host.go_down(reason)
                downed += 1
        return downed

    def relight(self) -> int:
        """Bring a dark infrastructure back: restart every down host and
        relaunch a client on each. Returns the number of hosts revived."""
        revived = 0
        for host in self.hosts:
            if not host.up:
                host.go_up()
                revived += 1
            if host.name not in self.drivers:
                self.launch_client(host)
        return revived

    # -- accounting ------------------------------------------------------------
    def active_host_count(self) -> int:
        """Hosts currently delivering work (running a client)."""
        return sum(
            1 for name, drv in self.drivers.items() if drv.host.up and drv.running
        )


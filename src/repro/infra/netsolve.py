"""NetSolve adapter (§5.7): brokered remote procedure invocation.

NetSolve's agent brokers client requests onto computational servers that
advertise their capabilities. The SC98 port (done by the NetSolve group
as EveryWare's extensibility test) ran the Ramsey code on a handful of
servers; the adapter models the agent as a placement step with brokering
latency and automatic reassignment when a server dies.
"""

from __future__ import annotations

from functools import partial

from ..simgrid.host import Host
from ..simgrid.load import MeanRevertingLoad
from .base import InfraAdapter
from .speeds import speed_for

__all__ = ["NetSolveFarm"]


class NetSolveFarm(InfraAdapter):
    name = "netsolve"

    def __init__(
        self,
        *args,
        n_servers: int = 3,
        agent_latency: float = 5.0,
        mtbf: float = 5 * 3600.0,
        mttr: float = 1200.0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.n_servers = n_servers
        self.agent_latency = agent_latency
        self.mtbf = mtbf
        self.mttr = mttr
        self.brokered = 0

    def deploy(self) -> None:
        rng = self._rng
        for i in range(self.n_servers):
            host = self._add_host(
                f"netsolve-{i}",
                speed=speed_for("netsolve_server", jitter=0.2, rng=rng),
                load_model=MeanRevertingLoad(mean=0.7, sigma=0.005),
            )
            self._start_failure_cycle(host)
            self.relaunch(host)

    def relaunch(self, host: Host) -> None:
        """Agent brokering: match the request to a capable server."""
        self.env.start(partial(self._broker, host), self.agent_latency)

    def _broker(self, host: Host, _tag: int) -> None:
        if host.up and host.name not in self.drivers:
            self.brokered += 1
            self.launch_client(host)

    def on_client_exit(self, host: Host) -> None:
        if host.up:
            self.relaunch(host)

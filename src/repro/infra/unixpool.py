"""Plain Unix resources (§5.1): PACI workstations, MPP nodes, the Tera MTA.

The reference EveryWare implementation targeted Unix first; the pool here
mixes interactive workstations (diurnal contention), parallel-machine
nodes reached through batch queues (higher, steadier availability but
occasional whole-machine drains), and one very fast unique machine
standing in for the Tera MTA. Hosts fail occasionally and come back;
clients are relaunched when their host returns.
"""

from __future__ import annotations

from ..simgrid.host import Host
from ..simgrid.load import ComposedLoad, ConstantLoad, DiurnalLoad, MeanRevertingLoad
from .base import InfraAdapter
from .speeds import speed_for

__all__ = ["UnixPool"]


class UnixPool(InfraAdapter):
    name = "unix"

    def __init__(
        self,
        *args,
        n_workstations: int = 24,
        n_mpp_nodes: int = 24,
        with_tera_mta: bool = True,
        mtbf: float = 6 * 3600.0,
        mttr: float = 600.0,
        restart_delay: float = 60.0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.n_workstations = n_workstations
        self.n_mpp_nodes = n_mpp_nodes
        self.with_tera_mta = with_tera_mta
        self.mtbf = mtbf
        self.mttr = mttr
        self.restart_delay = restart_delay

    def deploy(self) -> None:
        rng = self._rng
        for i in range(self.n_workstations):
            host = self._add_host(
                f"unix-ws{i}",
                speed=speed_for("unix_workstation", jitter=0.3, rng=rng),
                load_model=DiurnalLoad(day_trough=0.35, night_peak=0.9),
            )
            self._start_failure_cycle(host)
            self.launch_client(host)
        for i in range(self.n_mpp_nodes):
            host = self._add_host(
                f"unix-mpp{i}",
                speed=speed_for("unix_mpp_node", jitter=0.15, rng=rng),
                load_model=MeanRevertingLoad(mean=0.8, sigma=0.004),
                site=f"{self.site}-mpp",
            )
            self._start_failure_cycle(host)
            self.launch_client(host)
        if self.with_tera_mta:
            host = self._add_host(
                "unix-tera-mta",
                speed=speed_for("tera_mta"),
                load_model=MeanRevertingLoad(mean=0.6, sigma=0.006),
                site=f"{self.site}-tera",
            )
            self._start_failure_cycle(host)
            self.launch_client(host)

    def relaunch(self, host: Host) -> None:
        self.respawn_later(host, self.restart_delay)

    def on_client_exit(self, host: Host) -> None:
        # Transient failure: try again shortly; the failure cycle also
        # relaunches after recoveries.
        if host.up:
            self.relaunch(host)

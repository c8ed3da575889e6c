"""Globus adapter (§5.2, Fig. 5): the "light switch" over GRAM/GASS/MDS.

The Ramsey application used three Globus services:

* **MDS** — a directory queried for candidate gatekeepers plus a cheap
  *authenticate-only* probe per site (modeled: per-launch directory
  latency, counted);
* **GRAM** — the gatekeeper as a remote process-invocation mechanism
  (modeled: per-launch authentication + submission latency);
* **GASS** — the binary repository from which the gatekeeper "grappling
  hook" pulls the right executable for the platform (modeled: a fetch
  delay on a host's *first* launch; later launches hit the local copy).
"""

from __future__ import annotations

from functools import partial

from ..simgrid.host import Host, HostDown
from ..simgrid.load import MeanRevertingLoad
from .base import InfraAdapter
from .speeds import speed_for

__all__ = ["GlobusSites"]


class GlobusSites(InfraAdapter):
    name = "globus"

    def __init__(
        self,
        *args,
        sites: dict[str, int] | None = None,
        mds_latency: float = 2.0,
        gram_latency: float = 8.0,
        gass_fetch: float = 20.0,
        mtbf: float = 8 * 3600.0,
        mttr: float = 1200.0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        #: gatekeeper site name -> node count.
        self.sites = sites if sites is not None else {"isi": 6, "anl": 6}
        self.mds_latency = mds_latency
        self.gram_latency = gram_latency
        self.gass_fetch = gass_fetch
        self.mtbf = mtbf
        self.mttr = mttr
        self.mds_queries = 0
        self.gram_launches = 0
        self.gram_kills = 0
        self.gass_fetches = 0
        self._fetched: set[str] = set()
        #: Fig. 5's "light switch": the single point of control that
        #: activates/deactivates every Globus-enabled component.
        self.switched_on = True

    def deploy(self) -> None:
        rng = self._rng
        for sitename, count in self.sites.items():
            for i in range(count):
                host = self._add_host(
                    f"globus-{sitename}-{i}",
                    speed=speed_for("globus_node", jitter=0.2, rng=rng),
                    load_model=MeanRevertingLoad(mean=0.75, sigma=0.005),
                    site=f"{self.site}-{sitename}",
                )
                self._start_failure_cycle(host)
                if self.switched_on:
                    self.relaunch(host)

    # -- the light switch (Fig. 5) ------------------------------------------
    def switch_off(self) -> int:
        """Deactivate: GRAM-kill every running Globus client. Returns how
        many were terminated."""
        self.switched_on = False
        killed = 0
        for name, driver in list(self.drivers.items()):
            if driver.running:
                # GRAM job cancellation looks like an abrupt host-side kill
                # to the guest, same as every other reclaim path.
                assert driver.process is not None
                driver.process.interrupt(HostDown(driver.host, "gram-kill"))
                self.gram_kills += 1
                killed += 1
        return killed

    def switch_on(self) -> None:
        """(Re)activate: relaunch through MDS + GRAM + GASS on every up
        host without a client."""
        self.switched_on = True
        for host in self.hosts:
            if host.up and host.name not in self.drivers:
                self.relaunch(host)

    def relaunch(self, host: Host) -> None:
        """MDS discovery + authenticate-only + GRAM submit + GASS fetch,
        one engine entry per stage."""
        self.env.call(partial(self._mds, host), urgent=True)

    def _mds(self, host: Host, _tag: int) -> None:
        self.mds_queries += 1
        self.env.call(partial(self._gram, host), self.mds_latency)

    def _gram(self, host: Host, _tag: int) -> None:
        self.gram_launches += 1
        self.env.call(partial(self._gass, host), self.gram_latency)

    def _gass(self, host: Host, tag: int) -> None:
        if host.name in self._fetched:
            self._launch(host, tag)
            return
        # First launch on this platform: pull the binary through GASS.
        self.gass_fetches += 1
        self.env.call(partial(self._fetched_launch, host), self.gass_fetch)

    def _fetched_launch(self, host: Host, tag: int) -> None:
        self._fetched.add(host.name)
        self._launch(host, tag)

    def _launch(self, host: Host, _tag: int) -> None:
        if self.switched_on and host.up and host.name not in self.drivers:
            self.launch_client(host)

    def on_client_exit(self, host: Host) -> None:
        if host.up and self.switched_on:
            # Still switched on: GRAM relights the client automatically.
            self.relaunch(host)

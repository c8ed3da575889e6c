"""NT Supercluster adapter (§5.5): the CygWin-ported EveryWare on NT.

Models the two quirks the paper hit at SC98:

* **DNS configuration** — cluster nodes initially could not resolve the
  scheduler hosts' names ("the ability to resolve host names was not a
  part of the default configuration"); until NCSA support fixed it at
  ``dns_fix_time``, no client can start.
* **LSF sleep-kill** — workers slept a randomized interval at startup to
  avoid stampeding the scheduler, but "LSF seemed to interpret the lack
  of cpu usage by assuming the process is dead, reclaiming the
  processor". A worker whose startup sleep exceeds ``lsf_kill_threshold``
  is killed and must start over; the fix (and ablation A5 knob) is
  ``startup_sleep_max``.
"""

from __future__ import annotations

from functools import partial

from ..simgrid.host import Host
from ..simgrid.load import MeanRevertingLoad
from .base import InfraAdapter
from .speeds import speed_for

__all__ = ["NTSupercluster"]


class NTSupercluster(InfraAdapter):
    name = "nt"

    def __init__(
        self,
        *args,
        clusters: dict[str, int] | None = None,
        startup_sleep_max: float = 60.0,
        lsf_kill_threshold: float = 45.0,
        dns_fix_time: float = 0.0,
        mtbf: float = 12 * 3600.0,
        mttr: float = 900.0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        #: cluster name -> node count (defaults: NCSA 64 + UCSD 32 nodes).
        self.clusters = clusters if clusters is not None else {"ncsa": 64, "ucsd": 32}
        self.startup_sleep_max = startup_sleep_max
        self.lsf_kill_threshold = lsf_kill_threshold
        self.dns_fix_time = dns_fix_time
        self.mtbf = mtbf
        self.mttr = mttr
        self.lsf_kills = 0

    def deploy(self) -> None:
        rng = self._rng
        for cluster, count in self.clusters.items():
            for i in range(count):
                host = self._add_host(
                    f"nt-{cluster}-{i}",
                    speed=speed_for("nt_node", jitter=0.05, rng=rng),
                    load_model=MeanRevertingLoad(mean=0.85, sigma=0.003),
                    site=f"{self.site}-{cluster}",
                )
                self._start_failure_cycle(host)
                self.relaunch(host)

    def relaunch(self, host: Host) -> None:
        """Wait for DNS, then survive the LSF sleep gauntlet."""
        self.env.call(partial(self._startup, host), urgent=True)

    def _startup(self, host: Host, tag: int) -> None:
        if self.env.now < self.dns_fix_time:
            self.env.call(partial(self._sleep, host),
                          self.dns_fix_time - self.env.now)
        else:
            self._sleep(host, tag)

    def _sleep(self, host: Host, _tag: int) -> None:
        if not host.up or host.name in self.drivers:
            return
        rng = self.streams.get(f"lsf:{host.name}")
        sleep = float(rng.uniform(0, self.startup_sleep_max))
        if sleep > self.lsf_kill_threshold:
            # LSF reclaims the "dead" sleeper at the threshold; the
            # worker must be resubmitted and sleeps again.
            self.lsf_kills += 1
            self.env.call(partial(self._sleep, host), self.lsf_kill_threshold)
            return
        self.env.call(partial(self._wake, host), sleep)

    def _wake(self, host: Host, _tag: int) -> None:
        if host.up:
            self.launch_client(host)

    def on_client_exit(self, host: Host) -> None:
        if host.up:
            self.relaunch(host)

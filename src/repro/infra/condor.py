"""Condor adapter (§5.4): high-throughput cycles from owned workstations.

Condor watches keyboard/process activity; an idle workstation can run a
guest job, and when the owner returns the guest is reclaimed. The paper
used the "vanilla" universe, where reclaimed jobs are **terminated
without warning** — clients therefore checkpoint everything of value
through the Gossip/persistent services.

Each workstation alternates exponentially-distributed owner-busy and idle
periods; reclamation kills the client (host goes down for guests), and a
fresh client starts shortly after the machine goes idle again.

The paper's §5.4 lesson — schedulers placed *inside* the pool churn so
fast that clients waste time hunting for a live one — is an experiment
configuration (see ablation A2), not adapter logic: the adapter simply
exposes its hosts for service placement.
"""

from __future__ import annotations

from functools import partial

from ..simgrid.host import Host
from ..simgrid.load import ConstantLoad
from .base import InfraAdapter
from .speeds import speed_for

__all__ = ["CondorPool"]


class CondorPool(InfraAdapter):
    name = "condor"

    def __init__(
        self,
        *args,
        n_hosts: int = 100,
        idle_mean: float = 45 * 60.0,
        busy_mean: float = 25 * 60.0,
        start_delay: float = 30.0,
        universe: str = "vanilla",
        n_types: int = 3,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if universe not in ("vanilla", "standard"):
            raise ValueError(f"unknown Condor universe {universe!r}")
        self.n_hosts = n_hosts
        self.idle_mean = idle_mean
        self.busy_mean = busy_mean
        self.start_delay = start_delay
        #: §5.4: in the *standard* universe Condor checkpoints a reclaimed
        #: guest and migrates it to an idle workstation **of the same
        #: type**; in the *vanilla* universe (what SC98 used, because the
        #: pool was heterogeneous) the guest is killed outright.
        self.universe = universe
        self.n_types = n_types
        self.host_type: dict[str, int] = {}
        self.reclamations = 0
        self.checkpoint_migrations = 0
        self.checkpoints_lost = 0

    def deploy(self) -> None:
        rng = self._rng
        for i in range(self.n_hosts):
            host = self._add_host(
                f"condor-{i}",
                speed=speed_for("condor_workstation", jitter=0.4, rng=rng),
                # While idle, the guest gets the whole (older) machine.
                load_model=ConstantLoad(0.95),
            )
            self.host_type[host.name] = i % self.n_types
            owner = self.streams.get(f"owner:{host.name}")
            # Stagger: hosts start at random points of their cycle.
            self.env.start(partial(self._idle, host, owner),
                           float(owner.uniform(0, self.idle_mean)))

    # -- standard-universe checkpointing -------------------------------------
    def _capture_checkpoint(self, host) -> dict | None:
        """Snapshot the guest's work before the owner kills it."""
        driver = self.drivers.get(host.name)
        if driver is None or not driver.running:
            return None
        component = driver.component
        unit = getattr(component, "unit", None)
        if not isinstance(unit, dict):
            return None
        checkpoint = dict(unit)
        engine = getattr(component, "engine", None)
        if engine is not None:
            try:
                checkpoint["resume"] = engine.progress()
            except Exception:  # noqa: BLE001 — checkpointing is best-effort
                pass
        return checkpoint

    def _migrate_checkpoint(self, checkpoint: dict, host_type: int) -> None:
        """Restore the image on an idle workstation of the same type,
        trying once a minute, 120 times."""
        self.env.start(partial(self._restore, checkpoint, host_type, 120),
                       self.start_delay)

    def _restore(self, checkpoint: dict, host_type: int, tries: int,
                 _tag: int) -> None:
        if not tries:
            self.checkpoints_lost += 1
            return
        candidates = [
            h for h in self.hosts
            if h.up and h.name not in self.drivers
            and self.host_type[h.name] == host_type
        ]
        if candidates:
            idx = int(self._rng.integers(len(candidates)))
            driver = self.launch_client(candidates[idx])
            if driver is not None:
                # Condor restores the checkpointed image: the new
                # process resumes the unit where it left off.
                driver.component._take_unit(checkpoint, self.env.now)
                self.checkpoint_migrations += 1
                return
        self.env.call(partial(self._restore, checkpoint, host_type, tries - 1),
                      60.0)

    # -- the owner's cycle ------------------------------------------------------
    def _idle(self, host: Host, rng, _tag: int) -> None:
        """The owner is away: claim the workstation for a guest job."""
        if host.up:
            self.respawn_later(host, self.start_delay)
        self.env.call(partial(self._reclaim, host, rng),
                      float(rng.exponential(self.idle_mean)))

    def _reclaim(self, host: Host, rng, _tag: int) -> None:
        """The owner returns. Standard universe: checkpoint and migrate to
        a same-type machine; vanilla: the guest dies with its state."""
        self.reclamations += 1
        checkpoint = None
        if self.universe == "standard":
            checkpoint = self._capture_checkpoint(host)
        host.go_down("reclaimed")
        if checkpoint is not None:
            self._migrate_checkpoint(checkpoint, self.host_type[host.name])
        self.env.call(partial(self._release, host, rng),
                      float(rng.exponential(self.busy_mean)))

    def _release(self, host: Host, rng, tag: int) -> None:
        host.go_up()
        self._idle(host, rng, tag)

    def on_client_exit(self, host: Host) -> None:
        # Reclaimed: nothing to do — the owner cycle restarts the client
        # when the workstation goes idle again.
        pass

"""Simulated hosts.

A :class:`Host` models one machine in the resource pool: a peak speed in
"useful integer operations per second" (the paper's delivered-performance
metric, §4), an ambient-load process that modulates what fraction of that
speed a guest obtains, and an up/down/reclaimed lifecycle driven by the
infrastructure adapters (Condor reclamation, LSF kills, churn, ...).

Processes started via :meth:`Host.spawn` are interrupted with a
:class:`HostDown` cause when the host dies, mirroring how guest processes
at SC98 were killed without warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from .engine import Environment, Event, Process
from .load import ConstantLoad, LoadModel
from .rand import PrefixedStreams, RngStreams

__all__ = ["Host", "HostDown", "HostSpec"]


class HostDown(Exception):
    """Interrupt cause delivered to guest processes when their host dies."""

    def __init__(self, host: "Host", reason: str) -> None:
        super().__init__(f"{host.name} down: {reason}")
        self.host = host
        self.reason = reason


@dataclass
class HostSpec:
    """Static description of a host."""

    name: str
    site: str = "default"
    infra: str = "unix"
    speed: float = 1.0e7  # peak useful integer ops / second
    load_model: LoadModel = field(default_factory=ConstantLoad)
    load_period: float = 30.0  # seconds between availability updates


class Host:
    """A machine in the simulated Grid."""

    def __init__(
        self,
        env: Environment,
        spec: HostSpec,
        streams: RngStreams | PrefixedStreams,
    ) -> None:
        self.env = env
        self.spec = spec
        self.name = spec.name
        self.site = spec.site
        self.infra = spec.infra
        self.up = True
        self.availability = 1.0
        self._rng = streams.get(f"load:{spec.name}")
        self._guests: dict[str, Event] = {}
        self._load_proc: Optional[Process] = None
        #: cumulative (seconds up, seconds total) for dependability metrics
        self.up_seconds = 0.0
        self._last_state_change = env.now
        self._started = False
        #: Trace context of the fault-injector span that took this host
        #: down (set by :class:`repro.simgrid.faults.FaultPlan`, cleared on
        #: :meth:`go_up`); lets the network attribute drops at a dead host
        #: to the injected fault. ``None`` for ordinary MTBF churn.
        self.down_ctx: Optional[tuple[int, int]] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Begin the ambient-load process. Idempotent."""
        if self._started:
            return
        self._started = True
        self._load_proc = self.env.process(self._load_loop())

    def _load_loop(self) -> Generator:
        period = self.spec.load_period
        model = self.spec.load_model
        while True:
            if self.up:
                value = model.advance(self.env.now, period, self._rng)
                self.availability = min(max(value, 0.0), 1.0)
            yield self.env.timeout(period)

    def go_down(self, reason: str = "failure") -> None:
        """Take the host down, killing all guest processes."""
        if not self.up:
            return
        self.up_seconds += self.env.now - self._last_state_change
        self._last_state_change = self.env.now
        self.up = False
        self.availability = 0.0
        guests, self._guests = self._guests, {}
        cause = HostDown(self, reason)
        for proc in guests.values():
            if proc.is_alive:
                proc.interrupt(cause)

    def go_up(self) -> None:
        """Bring the host back up (guest processes must be respawned)."""
        if self.up:
            return
        self._last_state_change = self.env.now
        self.up = True
        self.availability = 1.0
        self.down_ctx = None

    @property
    def uptime_fraction(self) -> float:
        """Fraction of elapsed simulation time this host has been up."""
        total = self.env.now
        if total <= 0:
            return 1.0
        up = self.up_seconds
        if self.up:
            up += self.env.now - self._last_state_change
        return up / total

    # -- computation ----------------------------------------------------------
    def effective_speed(self) -> float:
        """Deliverable ops/second right now."""
        return self.spec.speed * self.availability if self.up else 0.0

    # -- guest processes --------------------------------------------------------
    def spawn(self, generator: Generator, name: str) -> Process:
        """Run a guest process; it is interrupted with HostDown if the host
        dies. A second spawn with the same name replaces the registry entry
        (the older process keeps running but is no longer tracked)."""
        if not self.up:
            raise RuntimeError(f"cannot spawn {name!r} on down host {self.name}")
        proc = self.env.process(generator)
        self.adopt(proc, name)
        return proc

    def adopt(self, guest: Event, name: str) -> None:
        """Track ``guest`` until it triggers: a :class:`Process`, or any
        pending event with the same ``is_alive``/``interrupt(cause)`` pair
        (a callback-driven driver's handle). :meth:`go_down` interrupts
        it with :class:`HostDown`."""
        if not self.up:
            raise RuntimeError(f"cannot spawn {name!r} on down host {self.name}")
        self._guests[name] = guest

        def _deregister(_event: Any) -> None:
            if self._guests.get(name) is guest:
                del self._guests[name]

        assert guest.callbacks is not None
        guest.callbacks.append(_deregister)

    def guest_names(self) -> list[str]:
        return sorted(self._guests)

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<Host {self.name} ({self.infra}@{self.site}) {state} avail={self.availability:.2f}>"

"""Simulated hosts.

A :class:`Host` models one machine in the resource pool: a peak speed in
"useful integer operations per second" (the paper's delivered-performance
metric, §4), an ambient load, updated by one engine entry per
``load_period``, that modulates what fraction of that speed a guest
obtains, and an up/down/reclaimed lifecycle driven by the infrastructure
adapters (Condor reclamation, LSF kills, churn, ...).

Guests adopted via :meth:`Host.adopt` (driver handles) are interrupted
with a :class:`HostDown` cause when the host dies, mirroring how guest
processes at SC98 were killed without warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .engine import Environment, Event
from .load import ConstantLoad, LoadModel
from .rand import PrefixedStreams, RngStreams

__all__ = ["Host", "HostDown", "HostSpec"]


class HostDown(Exception):
    """Interrupt cause delivered to guests when their host dies."""

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
        self._started = False
        #: Trace context of the fault-injector span that took this host
        #: down (set by :class:`repro.simgrid.faults.FaultPlan`, cleared on
        #: :meth:`go_up`); lets the network attribute drops at a dead host
        #: to the injected fault. ``None`` for ordinary MTBF churn.
        self.down_ctx: Optional[tuple[int, int]] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Begin the ambient load: one engine entry per period, the first
        urgent at this instant. Idempotent."""
        if self._started:
            return
        self._started = True
        self.env.call(self._load_step, urgent=True)

    def _load_step(self, _tag: int) -> None:
        period = self.spec.load_period
        if self.up:
            value = self.spec.load_model.advance(self.env.now, period,
                                                 self._rng)
            self.availability = min(max(value, 0.0), 1.0)
        self.env.call(self._load_step, period)

    def go_down(self, reason: str = "failure") -> None:
        """Take the host down, killing all guests."""
        if not self.up:
            return
        self.up = False
        self.availability = 0.0
        guests, self._guests = self._guests, {}
        cause = HostDown(self, reason)
        for proc in guests.values():
            if proc.is_alive:
                proc.interrupt(cause)

    def go_up(self) -> None:
        """Bring the host back up (guests must be relaunched)."""
        if self.up:
            return
        self.up = True
        self.availability = 1.0
        self.down_ctx = None

    # -- computation ----------------------------------------------------------
    def effective_speed(self) -> float:
        """Deliverable ops/second right now."""
        return self.spec.speed * self.availability if self.up else 0.0

    # -- guests -----------------------------------------------------------------
    def adopt(self, guest: Event, name: str) -> None:
        """Track ``guest`` — a driver's handle: a pending event with an
        ``is_alive``/``interrupt(cause)`` pair — until it triggers.
        :meth:`go_down` interrupts it with :class:`HostDown`. A second
        guest with the same name replaces the registry entry (the older
        one keeps running but is no longer tracked)."""
        if not self.up:
            raise RuntimeError(f"cannot spawn {name!r} on down host {self.name}")
        self._guests[name] = guest

        def _deregister(_event: Any) -> None:
            if self._guests.get(name) is guest:
                del self._guests[name]

        assert guest.callbacks is not None
        guest.callbacks.append(_deregister)

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<Host {self.name} ({self.infra}@{self.site}) {state} avail={self.availability:.2f}>"

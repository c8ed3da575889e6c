"""Driver running a sans-IO :class:`Component` on a simulated host.

What a driver does with a component — effects, timers, reliable sends,
dispatch, spans — is :class:`~repro.core.driver.ComponentDriver`; this
module is the simulated plane beneath it: the engine's clock, the
:class:`SimEndpoint` transport, seeded RNG streams, and the lifecycle and
wake-up scheduling on the event queue. There is no driver process: the
network hands every arriving delivery to :meth:`SimDriver._on_delivery`
from the delivery's own queue entry, and timers and reliable-send
deadlines share one wake-up — a queue entry that calls
:meth:`SimDriver._on_wake` — re-armed after each handled event (DESIGN §7
has the three same-instant ordering rules this keeps). When the host dies
(Condor reclamation, failure, ...) the driver's :attr:`~SimDriver.process`
handle is interrupted with :class:`~repro.simgrid.host.HostDown`; the
driver unbinds the endpoint and reports the death through ``on_stop`` —
matching how SC98 guest processes were killed without warning.

:class:`SimWorld` is the one place a simulated world is assembled: every
experiment, twin and example lays its topology out on one with
:meth:`~SimWorld.host` and :meth:`~SimWorld.spawn`, and arms its faults
with :meth:`~SimWorld.install`.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import TYPE_CHECKING, Any, Iterable, Optional

from ..simgrid.engine import Environment, Event, SimulationError
from ..simgrid.faults import FaultPlan, HostCrash
from ..simgrid.host import Host, HostSpec
from ..simgrid.network import Address, AddressError, Delivery, Network
from ..simgrid.rand import RngStreams
from .component import Component, Send
from .driver import ComponentDriver, LogSink
from .linguafranca.endpoint import SimEndpoint
from .policy import TimeoutPolicy
from .telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from ..infra.base import InfraAdapter

__all__ = ["SimDriver", "SimWorld"]


class _DriverHandle(Event):
    """What the outside holds of a started driver: an event that triggers
    with the stop reason when the driver ends, plus the
    ``is_alive``/``interrupt()`` pair through which hosts and
    infrastructure adapters kill their guests."""

    __slots__ = ("_driver",)

    def __init__(self, driver: "SimDriver") -> None:
        super().__init__(driver.env)
        self._driver = driver

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Kill the driver at the current time; ``on_stop`` sees
        ``host_down:<cause.reason>``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        self.env.call(partial(self._driver._on_interrupt, cause), urgent=True)


class SimDriver(ComponentDriver):
    """Runs one component on one host."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        host: Host,
        port: str,
        component: Component,
        streams,
        log_sink: Optional[LogSink] = None,
        timeout_policy: Optional[TimeoutPolicy] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.host = host
        self.streams = streams
        self.address = Address(host.name, port)
        self.endpoint = SimEndpoint(env, network, self.address,
                                    sink=self._on_delivery)
        #: Sends dropped for a malformed destination.
        self.send_errors = 0
        self.process: Optional[_DriverHandle] = None
        #: The wake-up's queue item (called with its entry's tag); the tag
        #: of the one live wake-up entry, 0 when none (others are stale);
        #: its time (None for the hop); and the sequence number it must
        #: fire under, the latest re-arm's at that time (DESIGN §7 rule 2).
        self._wake = self._on_wake
        self._wake_queued = 0
        self._wake_at: Optional[float] = None
        self._wake_seq = 0
        # Worlds hand the shared Telemetry over explicitly, or implicitly
        # via Network.attach_telemetry (so the many driver construction
        # sites inherit it without plumbing).
        super().__init__(
            component, self.endpoint.contact, host.name,
            timeout_policy or TimeoutPolicy.forecast(default=10.0),
            telemetry if telemetry is not None else network.telemetry,
            log_sink)

    # -- clock, transport, RNG ------------------------------------------------
    def now(self) -> float:
        return self.env.now

    def _resolve(self, dst: str) -> Optional[Address]:
        try:
            return self.network.route(dst)
        except AddressError:
            self.send_errors += 1
            return None

    def _transmit(self, route: Address, eff: Send) -> None:
        message = eff.message
        if not message.sender:
            message.sender = self.endpoint.contact
        self.network.send(self.address, route, message.encode(),
                          message.trace, message)

    def _rng_for(self, purpose: str):
        # One stream per purpose and address keeps runs reproducible.
        return self.streams.get(f"{purpose}:{self.endpoint.contact}")

    def _host_speed(self) -> float:
        return self.host.effective_speed()

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> _DriverHandle:
        """Register as a guest of the host and schedule ``on_start``."""
        handle = _DriverHandle(self)
        self.host.adopt(handle, name=f"drv:{self.address.port}")
        self.process = handle
        self.env.call(self._on_start, urgent=True)
        return handle

    @property
    def running(self) -> bool:
        return self.process is not None and self.process.is_alive and not self._stopped

    # -- event entry points -----------------------------------------------------
    # Same-instant ordering is part of the determinism contract (same seed,
    # same bytes), so these keep the event-queue positions the generator
    # loop they replace had: on_start from an urgent entry, a
    # wake-up re-armed after every handled event (at the sequence number a
    # fresh Timeout would take), and one zero-delay hop between a wake-up
    # firing and the timers it fires.
    def _on_start(self, _tag: int) -> None:
        self._start_component(self.env.now)
        self._stop_or_rearm()

    def _on_delivery(self, delivery: Delivery) -> None:
        if self.process is None:
            return  # bound at construction but never started
        message = delivery.record
        if message is None:
            message = self.endpoint.message_of(delivery)
            if message is None:
                return  # corrupt data on the wire: dropped, keep listening
        env = self.env
        now = env._now
        self._dispatch(message, now)
        heap = self._deadlines.heap
        if heap and heap[0][0] <= now:
            self._fire_due(now)
        if self._stopped or not heap:
            self._stop_or_rearm()
            return
        # _stop_or_rearm's re-arm, inline.
        at = now + max(heap[0][0] - now, 0.0)
        seq = env._seq = env._seq + 1
        if at != self._wake_at or not self._wake_queued:
            heappush(env._queue, (at, seq, self._wake))
            self._wake_at = at
            self._wake_queued = seq
        self._wake_seq = seq

    def _on_wake(self, tag: int) -> None:
        """A wake-up hops once through the queue (rule 3); the hop fires
        the due timers. An entry that would pop next is not queued: it
        takes its sequence number and does its work at once."""
        if tag != self._wake_queued:
            return  # superseded
        env = self.env
        queue = env._queue
        at = self._wake_at
        if at is not None:  # the wake-up, not its hop
            if tag != self._wake_seq and queue and \
                    queue[0] < (at, self._wake_seq):
                # Re-armed at this time since it was queued: fire from the
                # position the latest re-arm took, as a fresh Timeout would.
                self._wake_queued = self._wake_seq
                heappush(queue, (at, self._wake_seq, self._wake))
                return
            seq = self._wake_queued = env._seq = env._seq + 1
            self._wake_at = None
            if queue and queue[0][0] == at:
                heappush(queue, (at, seq, self._wake))
                return
        self._fire_due(env._now)
        self._stop_or_rearm()

    def _stop_or_rearm(self) -> None:
        """After every handled event: finish if the component asked to
        stop, else re-arm the wake-up for the next deadline."""
        if self._stopped:
            self._finish(self.stop_reason or "stopped")
            return
        heap = self._deadlines.heap
        if not heap:
            self._wake_queued = 0
            return
        env = self.env
        now = env._now
        at = now + max(heap[0][0] - now, 0.0)
        # Take a fresh wake-up's number; an unchanged time queues nothing.
        seq = env._seq = env._seq + 1
        if at != self._wake_at or not self._wake_queued:
            heappush(env._queue, (at, seq, self._wake))
            self._wake_at = at
            self._wake_queued = seq
        self._wake_seq = seq

    def _on_interrupt(self, cause: Any, _tag: int) -> None:
        if self.process.is_alive:  # else it ended before the kill landed
            self._finish(f"host_down:{getattr(cause, 'reason', cause)}")

    def _finish(self, reason: str) -> None:
        self._stopped = True
        self._wake_queued = 0
        self.endpoint.close()
        self.component.on_stop(self.env.now, reason)
        self.process.succeed(reason)


class SimWorld:
    """One simulated world: an engine, seeded RNG streams and a network
    (``**net`` are :class:`Network` options), plus the service drivers
    a fault plan relaunches after a reboot.

    ``telemetry`` is attached to the network, so every driver inherits
    it; a world without one records no metrics."""

    def __init__(self, seed: int, telemetry: Optional[Telemetry] = None,
                 **net) -> None:
        self.env = Environment()
        self.streams = RngStreams(seed=seed)
        self.network = Network(self.env, self.streams, **net)
        self.telemetry = telemetry
        if telemetry is not None:
            self.network.attach_telemetry(telemetry)
        #: Service drivers by contact (replaced on relaunch).
        self.services: dict[str, SimDriver] = {}

    def host(self, name: str, **spec) -> Host:
        """Add a host; its ambient load starts only with ``host.start()``."""
        host = Host(self.env, HostSpec(name=name, **spec), self.streams)
        self.network.add_host(host)
        return host

    def spawn(self, host: Host, port: str, component: Component,
              service: bool = False) -> SimDriver:
        """Start ``component`` on ``host``; a ``service`` is relaunched
        after a planned reboot (:meth:`install`)."""
        driver = SimDriver(self.env, self.network, host, port, component,
                           self.streams)
        driver.start()
        if service:
            self.services[driver.endpoint.contact] = driver
        return driver

    def install(self, plan: FaultPlan,
                adapters: Iterable["InfraAdapter"] = ()) -> None:
        """Arm ``plan`` (adapters relaunch their own clients). A service
        host has no adapter, so each crash with a reboot also relaunches
        that host's services 1 s after the reboot — the same component
        object, with all of its in-memory state — if the host is up."""
        plan.install(self.env, self.network, adapters=adapters)
        for crash in plan.injectors:
            if not isinstance(crash, HostCrash) or crash.reboot_after is None:
                continue
            at = crash.at + crash.reboot_after + 1.0
            for driver in list(self.services.values()):
                if driver.host.name == crash.host:
                    # Plan times count from installation.
                    self.env.start(partial(self._relaunch, driver), at)

    def _relaunch(self, driver: SimDriver, _tag: int) -> None:
        if driver.host.up:
            self.spawn(driver.host, driver.address.port, driver.component,
                       service=True)

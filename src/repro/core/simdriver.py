"""Driver running a sans-IO :class:`Component` on a simulated host.

What a driver does with a component — effects, timers, reliable sends,
dispatch, spans — is :class:`~repro.core.driver.ComponentDriver`; this
module is the simulated plane beneath it: the engine's clock, the
:class:`SimEndpoint` transport, seeded RNG streams, and the lifecycle and
wake-up scheduling on the event queue. There is no driver process: the network hands every arriving delivery to
:meth:`SimDriver._on_delivery` from the arrival event itself, and timers
and reliable-send deadlines share one wake-up ``Timeout`` that is re-armed
after each handled event (DESIGN §7 has the three same-instant ordering
rules this keeps). When the host dies (Condor reclamation, failure, ...)
the driver's :attr:`~SimDriver.process` handle is interrupted with
:class:`~repro.simgrid.host.HostDown`; the driver unbinds the endpoint and
reports the death through ``on_stop`` — matching how SC98 guest processes
were killed without warning.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..simgrid.engine import (PRIORITY_URGENT, Environment, Event,
                              SimulationError)
from ..simgrid.host import Host
from ..simgrid.network import Address, AddressError, Delivery, Network
from .component import Component, Send
from .driver import ComponentDriver, LogSink
from .linguafranca.endpoint import SimEndpoint
from .policy import TimeoutPolicy
from .telemetry import Telemetry

__all__ = ["SimDriver"]


def _urgently(env: Environment, callback: Callable[[Event], None]) -> None:
    """Run ``callback`` at the current instant, ahead of every
    normal-priority event — where a process's first step and an
    interrupt's delivery sit."""
    event = Event(env)
    event.callbacks.append(callback)
    env.schedule(event, priority=PRIORITY_URGENT)


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
        _urgently(self.env, lambda _event: self._driver._on_interrupt(cause))


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
        #: The armed wake-up (or its zero-delay hop); any other wake-up
        #: still on the event queue is superseded and ignored when it fires.
        self._wake: Optional[Event] = None
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
            return Address.parse(dst)
        except AddressError:
            self.send_errors += 1
            return None

    def _transmit(self, route: Address, eff: Send) -> None:
        self.endpoint.send(route, eff.message)

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
        _urgently(self.env, self._on_start)
        return handle

    @property
    def running(self) -> bool:
        return self.process is not None and self.process.is_alive and not self._stopped

    # -- event entry points -----------------------------------------------------
    # Same-instant ordering is part of the determinism contract (same seed,
    # same bytes), so these keep the event-queue positions the generator
    # loop they replace had: on_start from an urgent zero-delay event, a
    # fresh wake-up Timeout after every handled event, and one zero-delay
    # hop between a wake-up firing and the timers it fires.
    def _on_start(self, _event: Event) -> None:
        self._start_component(self.env.now)
        self._stop_or_rearm()

    def _on_delivery(self, delivery: Delivery) -> None:
        if self.process is None:
            return  # bound at construction but never started
        message = self.endpoint.message_of(delivery)
        if message is None:
            return  # corrupt data on the wire: dropped, keep listening
        now = self.env.now
        self._dispatch(message, now, self.env.profiler)
        self._fire_due(now)
        self._stop_or_rearm()

    def _on_wake(self, event: Event) -> None:
        """The wake-up Timeout fired: hop once more through the queue, so
        everything already scheduled for this instant runs first."""
        if event is self._wake:
            hop = self._wake = self.env.timeout(0.0)
            hop.callbacks.append(self._on_due)

    def _on_due(self, event: Event) -> None:
        if event is self._wake:
            self._fire_due(self.env.now)
            self._stop_or_rearm()

    def _stop_or_rearm(self) -> None:
        """After every handled event: finish if the component asked to
        stop, else arm a fresh wake-up for the next deadline."""
        if self._stopped:
            self._finish(self.stop_reason or "stopped")
            return
        deadline = self._next_deadline()
        if deadline is None:
            self._wake = None
        else:
            wake = self._wake = self.env.timeout(
                max(deadline - self.env.now, 0.0))
            wake.callbacks.append(self._on_wake)

    def _on_interrupt(self, cause: Any) -> None:
        if self.process.is_alive:  # else it ended before the kill landed
            self._finish(f"host_down:{getattr(cause, 'reason', cause)}")

    def _finish(self, reason: str) -> None:
        self._stopped = True
        self._wake = None
        self.endpoint.close()
        self.component.on_stop(self.env.now, reason)
        self.process.succeed(reason)

"""Ambient load models.

A load model produces, for a single resource, a time series of *availability
fractions* in ``[0, 1]``: the share of the resource's peak capacity that a
guest computation can actually obtain. This is the simulated stand-in for
the contention the paper's application experienced on the non-dedicated
SC98 resource pool ("ambient load conditions", §2.2, §4).

Models are advanced in fixed steps by the host's load process. All
randomness comes from the generator passed to ``advance`` so that load
traces replay deterministically under :class:`repro.simgrid.rand.RngStreams`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "LoadModel",
    "ConstantLoad",
    "MeanRevertingLoad",
    "DiurnalLoad",
    "ScheduledEvent",
    "EventSchedule",
    "TraceLoad",
    "ComposedLoad",
]


def _clip01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


class LoadModel:
    """Base class. Subclasses override :meth:`advance`."""

    def advance(self, t: float, dt: float, rng: np.random.Generator) -> float:
        """Return the availability fraction for the window ``[t, t+dt)``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget internal state (for replay from time zero)."""


class ConstantLoad(LoadModel):
    """Fixed availability — e.g. a dedicated or unloaded resource."""

    def __init__(self, availability: float = 1.0) -> None:
        if not 0.0 <= availability <= 1.0:
            raise ValueError(f"availability {availability} outside [0, 1]")
        self.availability = availability

    def advance(self, t: float, dt: float, rng: np.random.Generator) -> float:
        return self.availability


class MeanRevertingLoad(LoadModel):
    """AR(1) mean-reverting availability (shared interactive machines).

    ``x(t+dt) = x + theta*(mean - x)*dt + sigma*sqrt(dt)*noise`` clipped to
    [0, 1]. ``theta`` is the reversion rate per second and ``sigma`` the
    diffusion scale per sqrt-second.
    """

    def __init__(
        self,
        mean: float = 0.7,
        theta: float = 1.0 / 600.0,
        sigma: float = 0.01,
        initial: Optional[float] = None,
    ) -> None:
        if not 0.0 <= mean <= 1.0:
            raise ValueError(f"mean {mean} outside [0, 1]")
        self.mean = mean
        self.theta = theta
        self.sigma = sigma
        self.initial = mean if initial is None else initial
        self._x = self.initial

    def advance(self, t: float, dt: float, rng: np.random.Generator) -> float:
        noise = rng.standard_normal()
        self._x += self.theta * (self.mean - self._x) * dt
        self._x += self.sigma * math.sqrt(max(dt, 0.0)) * noise
        self._x = _clip01(self._x)
        return self._x

    def reset(self) -> None:
        self._x = self.initial


class DiurnalLoad(LoadModel):
    """Availability that follows a day/night cycle plus noise.

    Availability peaks at ``night_peak`` around ``trough_hour + 12`` and
    bottoms out at ``day_trough`` around ``trough_hour`` (local time in
    hours), modelling interactive users loading machines during the day.
    """

    def __init__(
        self,
        day_trough: float = 0.35,
        night_peak: float = 0.9,
        trough_hour: float = 14.0,
        noise_sigma: float = 0.05,
    ) -> None:
        self.day_trough = day_trough
        self.night_peak = night_peak
        self.trough_hour = trough_hour
        self.noise_sigma = noise_sigma

    def advance(self, t: float, dt: float, rng: np.random.Generator) -> float:
        hour = (t / 3600.0) % 24.0
        phase = math.cos(2 * math.pi * (hour - self.trough_hour) / 24.0)
        # phase = +1 at the trough hour, -1 twelve hours later.
        mid = (self.night_peak + self.day_trough) / 2.0
        amp = (self.night_peak - self.day_trough) / 2.0
        base = mid - amp * phase
        return _clip01(base + self.noise_sigma * rng.standard_normal())


class ScheduledEvent:
    """A multiplicative availability disturbance over ``[start, end)``.

    ``factor`` scales availability during the window; a recovery ramp of
    ``ramp`` seconds linearly blends back to 1.0 after ``end``. This is how
    the SC98 scenario expresses the 11:00 judging-time load spike (§4.1).
    """

    def __init__(self, start: float, end: float, factor: float, ramp: float = 0.0) -> None:
        if end < start:
            raise ValueError("event end before start")
        if factor < 0:
            raise ValueError("negative factor")
        self.start = start
        self.end = end
        self.factor = factor
        self.ramp = ramp

    def multiplier(self, t: float) -> float:
        if t < self.start:
            return 1.0
        if t < self.end:
            return self.factor
        if self.ramp > 0 and t < self.end + self.ramp:
            frac = (t - self.end) / self.ramp
            return self.factor + (1.0 - self.factor) * frac
        return 1.0


class EventSchedule(LoadModel):
    """Deterministic availability from a set of scheduled events."""

    def __init__(self, events: Sequence[ScheduledEvent] = ()) -> None:
        self.events = list(events)

    def add(self, event: ScheduledEvent) -> None:
        self.events.append(event)

    def multiplier(self, t: float) -> float:
        m = 1.0
        for ev in self.events:
            m *= ev.multiplier(t)
        return m

    def advance(self, t: float, dt: float, rng: np.random.Generator) -> float:
        # Deliberately not clipped above 1: a schedule may *boost* another
        # model inside a ComposedLoad (which clips the final product); a
        # host clamps its own availability to [0, 1] regardless.
        return max(self.multiplier(t), 0.0)


class TraceLoad(LoadModel):
    """Replays a recorded availability trace (step-wise hold).

    This is how real measurements — e.g. NWS CPU-availability series from
    an actual deployment — drive the simulation instead of a synthetic
    model. ``times`` must be ascending; the value in force at simulated
    time ``t`` is the last sample at or before ``t`` (offset by
    ``t0``). With ``loop=True`` the trace repeats past its end; otherwise
    the final value holds.
    """

    def __init__(
        self,
        times: Sequence[float],
        values: Sequence[float],
        t0: float = 0.0,
        loop: bool = False,
    ) -> None:
        if len(times) != len(values) or not len(times):
            raise ValueError("times/values must be equal-length and non-empty")
        self._times = np.asarray(times, dtype=float)
        if np.any(np.diff(self._times) < 0):
            raise ValueError("trace times must be ascending")
        self._values = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
        self.t0 = t0
        self.loop = loop
        self._span = float(self._times[-1] - self._times[0])

    def advance(self, t: float, dt: float, rng: np.random.Generator) -> float:
        rel = t - self.t0
        if self.loop and self._span > 0:
            rel = self._times[0] + (rel - self._times[0]) % self._span
        idx = int(np.searchsorted(self._times, rel, side="right")) - 1
        idx = min(max(idx, 0), len(self._values) - 1)
        return float(self._values[idx])


class ComposedLoad(LoadModel):
    """Product of several load models (e.g. diurnal x scheduled spikes)."""

    def __init__(self, *models: LoadModel) -> None:
        if not models:
            raise ValueError("ComposedLoad needs at least one model")
        self.models = models

    def advance(self, t: float, dt: float, rng: np.random.Generator) -> float:
        value = 1.0
        for m in self.models:
            value *= m.advance(t, dt, rng)
        return _clip01(value)

    def reset(self) -> None:
        for m in self.models:
            m.reset()

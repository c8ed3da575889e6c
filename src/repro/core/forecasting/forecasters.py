"""Lightweight time-series forecasters (the NWS forecaster bank).

The Network Weather Service makes short-term performance predictions by
running a family of cheap forecasting methods over each measurement stream
and dynamically choosing the one with the lowest accumulated error
(Wolski '98, cited as [38]). These are the constituent methods; the
adaptive chooser lives in :mod:`.selector`.

Every forecaster is O(1) or O(window) per update — they must be cheap
enough to run inside servers on every request-response event (§2.2
"light-weight time series forecasting methods").
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Optional

__all__ = [
    "Forecaster",
    "LastValue",
    "RunningMean",
    "SlidingMean",
    "SlidingMedian",
    "ExponentialSmoothing",
    "TrimmedMean",
    "AdaptiveMean",
    "default_bank",
]


class Forecaster:
    """Base class: observe values with :meth:`update`, predict the next
    value with :meth:`forecast` (None until enough history exists)."""

    name: str = "base"

    def update(self, value: float) -> None:
        raise NotImplementedError

    def forecast(self) -> Optional[float]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class LastValue(Forecaster):
    """Predicts the most recent measurement."""

    name = "last"

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def update(self, value: float) -> None:
        self._last = value

    def forecast(self) -> Optional[float]:
        return self._last


class RunningMean(Forecaster):
    """Mean of the entire history."""

    name = "run_mean"

    def __init__(self) -> None:
        self._sum = 0.0
        self._n = 0

    def update(self, value: float) -> None:
        self._sum += value
        self._n += 1

    def forecast(self) -> Optional[float]:
        return self._sum / self._n if self._n else None


class SlidingMean(Forecaster):
    """Mean of the last ``window`` measurements."""

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.name = f"mean_{window}"
        self._window = window
        self._values: deque[float] = deque(maxlen=window)
        self._sum = 0.0

    def update(self, value: float) -> None:
        if len(self._values) == self._window:
            self._sum -= self._values[0]
        self._values.append(value)
        self._sum += value

    def forecast(self) -> Optional[float]:
        if not self._values:
            return None
        return self._sum / len(self._values)


class SlidingMedian(Forecaster):
    """Median of the last ``window`` measurements."""

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.name = f"median_{window}"
        self._window = window
        self._values: deque[float] = deque(maxlen=window)
        self._sorted: list[float] = []

    def update(self, value: float) -> None:
        if len(self._values) == self._window:
            old = self._values[0]
            idx = bisect.bisect_left(self._sorted, old)
            del self._sorted[idx]
        self._values.append(value)
        bisect.insort(self._sorted, value)

    def forecast(self) -> Optional[float]:
        n = len(self._sorted)
        if n == 0:
            return None
        mid = n // 2
        if n % 2:
            return self._sorted[mid]
        return 0.5 * (self._sorted[mid - 1] + self._sorted[mid])


class ExponentialSmoothing(Forecaster):
    """``s <- (1-gain)*s + gain*value``; low gains smooth heavily."""

    def __init__(self, gain: float) -> None:
        if not 0.0 < gain <= 1.0:
            raise ValueError("gain must be in (0, 1]")
        self.name = f"exp_{gain:g}"
        self._gain = gain
        self._state: Optional[float] = None

    def update(self, value: float) -> None:
        if self._state is None:
            self._state = value
        else:
            self._state += self._gain * (value - self._state)

    def forecast(self) -> Optional[float]:
        return self._state


class TrimmedMean(Forecaster):
    """Mean of the last ``window`` values after dropping the ``trim``
    smallest and largest — robust to measurement spikes."""

    def __init__(self, window: int, trim: int = 1) -> None:
        if window < 2 * trim + 1:
            raise ValueError("window too small for requested trim")
        self.name = f"trim_{window}_{trim}"
        self._window = window
        self._trim = trim
        self._values: deque[float] = deque(maxlen=window)
        self._forecast: Optional[float] = None

    def update(self, value: float) -> None:
        self._values.append(value)
        ordered = sorted(self._values)
        if len(ordered) > 2 * self._trim:
            ordered = ordered[self._trim : len(ordered) - self._trim]
        self._forecast = sum(ordered) / len(ordered)

    def forecast(self) -> Optional[float]:
        return self._forecast


class AdaptiveMean(Forecaster):
    """Sliding mean whose window adapts to recent regime changes.

    After each update the forecaster compares the short-window and
    long-window means; when they diverge by more than ``threshold``
    (relative), the history is truncated to the short window — so the
    forecast tracks step changes quickly but averages noise when the
    series is stationary. This mirrors the NWS "adaptive window" methods.
    """

    def __init__(self, short: int = 5, long: int = 50, threshold: float = 0.25) -> None:
        if short < 1 or long <= short:
            raise ValueError("need 1 <= short < long")
        self.name = f"adapt_{short}_{long}"
        self._short = short
        self._long = long
        self._threshold = threshold
        self._values: deque[float] = deque(maxlen=long)
        self._forecast: Optional[float] = None

    def update(self, value: float) -> None:
        # The forecast is the mean of what is kept (``recent`` if truncated).
        self._values.append(value)
        mean = sum(self._values) / len(self._values)
        if len(self._values) > self._short:
            recent = list(self._values)[-self._short :]
            s_mean = sum(recent) / len(recent)
            scale = max(abs(mean), 1e-12)
            if abs(s_mean - mean) / scale > self._threshold:
                self._values = deque(recent, maxlen=self._long)
                mean = s_mean
        self._forecast = mean

    def forecast(self) -> Optional[float]:
        return self._forecast


def default_bank() -> list[Forecaster]:
    """The forecaster family used throughout EveryWare, patterned on the
    NWS default method set."""
    bank: list[Forecaster] = [LastValue(), RunningMean()]
    for w in (5, 10, 20, 50):
        bank.append(SlidingMean(w))
        bank.append(SlidingMedian(w))
    for g in (0.05, 0.1, 0.25, 0.5):
        bank.append(ExponentialSmoothing(g))
    bank.append(TrimmedMean(10, 2))
    bank.append(AdaptiveMean())
    return bank

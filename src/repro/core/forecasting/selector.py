"""The NWS forecaster bank: cheap methods, adaptively selected.

The Network Weather Service makes short-term performance predictions by
running a family of cheap forecasting methods over each measurement
stream and serving the one with the lowest mean absolute error *so far*
(Wolski '98, cited as [38]; §2.2: the NWS "dynamically chooses the
technique that yields the greatest forecasting accuracy over time").
They must be cheap enough to run inside servers on every
request-response event (§2.2 "light-weight time series forecasting
methods"), so :class:`ForecasterBank` computes all sixteen methods of
:data:`METHODS` in one pass per sample over one ring of the last 50
samples, each method reduced to a few numbers of running state.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from itertools import islice
from math import inf, isfinite
from typing import Optional

__all__ = ["Forecast", "ForecasterBank"]

#: Sliding mean and median windows, and exponential-smoothing gains.
_WINDOWS = (5, 10, 20, 50)
_GAINS = (0.05, 0.1, 0.25, 0.5)
#: The method family, in the order it is scanned for a winner (the first
#: of equally good methods wins).
METHODS = (
    "last",                 # the latest sample
    "run_mean",             # mean of the whole history
    *(f"{kind}_{w}" for w in _WINDOWS for kind in ("mean", "median")),
    *(f"exp_{g:g}" for g in _GAINS),  # s <- s + g*(value - s)
    "trim_10_2",            # mean of the last 10 without the 2 lowest and highest
    "adapt_5_50",           # mean of a history cut to the last 5 on a regime change
)
#: ``adapt_5_50`` cuts its history to the last ``_SHORT`` samples when
#: their mean leaves the whole history's by more than ``_THRESHOLD``
#: (relative); it never keeps more than the ring's ``_LONG``.
_SHORT, _LONG, _THRESHOLD = 5, 50, 0.25


@dataclass(frozen=True, slots=True)
class Forecast:
    """A served prediction plus provenance and error estimates. Frozen:
    a bank serves the same instance until its next sample."""

    value: float
    method: str
    mae: float  # mean absolute error of the winning method so far
    mse: float
    samples: int


class ForecasterBank:
    """Every method of :data:`METHODS` over one measurement stream. Each
    method predicts once per sample, right after absorbing it: the next
    sample scores that stored prediction, and :meth:`forecast` serves the
    best one. All methods predict from the first sample on, so they are
    all scored on the same samples."""

    __slots__ = ("_ring", "_n", "_run_sum", "_sums", "_sorted", "_smooth",
                 "_adapt_len", "_preds", "_abs_err", "_sq_err", "_served",
                 "rejected")

    def __init__(self) -> None:
        #: The last ``_LONG`` accepted samples, oldest first.
        self._ring: deque = deque(maxlen=_LONG)
        self._n = 0
        self._run_sum = 0.0
        #: Per window: the running sum and the sorted window (``insort``
        #: after equal values, so it is the stable sort of the window).
        self._sums = [0.0] * len(_WINDOWS)
        self._sorted: list[list] = [[] for _ in _WINDOWS]
        #: Smoothing states, one per gain (None: no sample yet).
        self._smooth: Optional[list] = None
        #: ``adapt_5_50`` keeps the last ``_adapt_len`` samples of the ring.
        self._adapt_len = 0
        #: Per method, by position: its pending prediction (None: no sample).
        self._preds: Optional[list] = None
        self._abs_err = [0.0] * len(METHODS)
        self._sq_err = [0.0] * len(METHODS)
        #: The forecast served since the last update (None: not asked yet).
        self._served: Optional[Forecast] = None
        #: Samples :meth:`update` refused as unscorable.
        self.rejected = 0

    @property
    def samples(self) -> int:
        return self._n

    @property
    def last_value(self) -> Optional[float]:
        return self._ring[-1] if self._ring else None

    def update(self, value: float) -> None:
        """Observe a measurement: score every method's pending prediction
        against it, then absorb it and store each method's next one. An
        unscorable sample is refused and counted, and nothing moves: NaN
        or ±inf would stick in the errors for good, and |pred - value|
        over ~1.3e154 overflows."""
        preds = self._preds
        try:
            ok = isfinite(value)
            if ok and preds is not None:
                sq_err = [err + (pred - value) ** 2
                          for err, pred in zip(self._sq_err, preds)]
        except OverflowError:
            ok = False
        if not ok:
            self.rejected += 1
            return
        ring = self._ring
        if preds is not None:
            self._sq_err = sq_err
            self._abs_err = [err + abs(pred - value)
                             for err, pred in zip(self._abs_err, preds)]
        n = self._n = self._n + 1
        run_sum = self._run_sum = self._run_sum + value
        preds = [value, run_sum / n]
        # The windows: the value leaving each one, then the new value.
        sums, sorts, kept = self._sums, self._sorted, len(ring)
        for k, window in enumerate(_WINDOWS):
            ordered = sorts[k]
            if kept >= window:
                old = ring[-window]
                sums[k] -= old
                del ordered[bisect_left(ordered, old)]
            sums[k] += value
            insort(ordered, value)
            size = len(ordered)
            mid = size // 2
            preds.append(sums[k] / size)
            preds.append(ordered[mid] if size % 2
                         else 0.5 * (ordered[mid - 1] + ordered[mid]))
        ring.append(value)
        smooth = self._smooth
        if smooth is None:
            smooth = [value] * len(_GAINS)
        else:
            smooth = [state + gain * (value - state)
                      for state, gain in zip(smooth, _GAINS)]
        self._smooth = smooth
        preds += smooth
        ordered = sorts[1]  # trim_10_2: the 10-window less 2 at each end
        if len(ordered) > 4:
            ordered = ordered[2:len(ordered) - 2]
        preds.append(sum(ordered) / len(ordered))
        # adapt_5_50: its history is always the ring's last ``kept``.
        kept = min(self._adapt_len + 1, _LONG)
        mean = sum(islice(ring, len(ring) - kept, None)) / kept
        if kept > _SHORT:
            s_mean = sum(islice(ring, len(ring) - _SHORT, None)) / _SHORT
            scale = max(abs(mean), 1e-12)
            if abs(s_mean - mean) / scale > _THRESHOLD:
                kept, mean = _SHORT, s_mean
        self._adapt_len = kept
        preds.append(mean)
        self._preds = preds
        self._served = None

    def forecast(self) -> Optional[Forecast]:
        """Serve the current winner's prediction; None with no history.
        The answer can only change when a sample arrives, so it is
        computed once per :meth:`update` however often it is read."""
        served = self._served
        if served is not None:
            return served
        preds = self._preds
        if preds is None:
            return None
        # Unscored (one sample so far), every method ranks at inf and the
        # first is served. Scored, the first with a strictly smaller MAE
        # wins: a NaN MAE beats nothing, and once best nothing beats it.
        scored = self._n - 1
        best, mae, mse = 0, inf, inf
        if scored:
            abs_err = self._abs_err
            mae = abs_err[0] / scored
            for i in range(1, len(METHODS)):
                err = abs_err[i] / scored
                if err < mae:
                    best, mae = i, err
            mse = self._sq_err[best] / scored
        served = self._served = Forecast(value=preds[best],
                                         method=METHODS[best], mae=mae,
                                         mse=mse, samples=self._n)
        return served

    def errors(self) -> dict[str, float]:
        """Per-method MAE so far (inf for never-scored methods)."""
        scored = self._n - 1
        return {name: err / scored if scored > 0 else inf
                for name, err in zip(METHODS, self._abs_err)}

"""Adaptive forecaster selection (the heart of the NWS methodology).

For every measurement stream, all forecasters in the bank predict the next
value; when it arrives, each method's error is accumulated, and forecasts
are served by the method with the lowest mean absolute error *so far*
(§2.2: the NWS "dynamically chooses the technique that yields the greatest
forecasting accuracy over time").
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from typing import Optional, Sequence

from .forecasters import Forecaster, default_bank

__all__ = ["Forecast", "ForecasterBank"]


@dataclass(frozen=True)
class Forecast:
    """A served prediction plus provenance and error estimates. Frozen:
    a bank serves the same instance until its next sample."""

    value: float
    method: str
    mae: float  # mean absolute error of the winning method so far
    mse: float
    samples: int


class ForecasterBank:
    """A bank of competing forecasters over one measurement stream. Each
    method predicts once per sample, right after absorbing it: the next
    sample scores that stored prediction, and :meth:`forecast` serves it."""

    def __init__(self, forecasters: Optional[Sequence[Forecaster]] = None) -> None:
        self._forecasters = list(forecasters) if forecasters is not None else default_bank()
        if not self._forecasters:
            raise ValueError("bank needs at least one forecaster")
        names = [f.name for f in self._forecasters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate forecaster names in bank: {names}")
        #: Per method, by position: pending prediction (None: no history).
        self._preds: list[Optional[float]] = [f.forecast() for f in self._forecasters]
        self._abs_err = [0.0] * len(names)
        self._sq_err = [0.0] * len(names)
        self._err_n = [0] * len(names)
        self._n = 0
        self._last_value: Optional[float] = None
        #: The forecast served since the last update (None: not asked yet).
        self._served: Optional[Forecast] = None
        #: Samples :meth:`update` refused as unscorable.
        self.rejected = 0

    @property
    def samples(self) -> int:
        return self._n

    @property
    def last_value(self) -> Optional[float]:
        return self._last_value

    def update(self, value: float) -> None:
        """Observe a measurement: score every method's pending prediction
        against it, then let each method absorb it. An unscorable sample
        is refused and counted, and nothing moves: NaN or ±inf would stick
        in the errors for good, and |pred - value| over ~1.3e154 overflows."""
        preds = self._preds
        try:
            squares = [None if pred is None else (pred - value) ** 2
                       for pred in preds] if isfinite(value) else None
        except OverflowError:
            squares = None
        if squares is None:
            self.rejected += 1
            return
        abs_err, sq_err, err_n = self._abs_err, self._sq_err, self._err_n
        for i, f in enumerate(self._forecasters):
            square = squares[i]
            if square is not None:
                abs_err[i] += abs(preds[i] - value)
                sq_err[i] += square
                err_n[i] += 1
            f.update(value)
            preds[i] = f.forecast()
        self._n += 1
        self._last_value = value
        self._served = None

    def forecast(self) -> Optional[Forecast]:
        """Serve the current winner's prediction; None with no history.
        The answer can only change when a sample arrives, so it is
        computed once per :meth:`update` however often it is read."""
        if self._served is not None:
            return self._served
        best: Optional[int] = None
        best_mae = inf
        for i, pred in enumerate(self._preds):
            if pred is None:
                continue
            # Methods that have never been scored rank behind scored ones
            # but remain eligible (cold start).
            n = self._err_n[i]
            mae = self._abs_err[i] / n if n else inf
            if mae < best_mae or best is None:
                best = i
                best_mae = mae
        if best is None:
            return None
        n = self._err_n[best]
        self._served = Forecast(
            value=self._preds[best],
            method=self._forecasters[best].name,
            mae=best_mae,
            mse=self._sq_err[best] / n if n else inf,
            samples=self._n,
        )
        return self._served

    def errors(self) -> dict[str, float]:
        """Per-method MAE so far (inf for never-scored methods)."""
        return {f.name: self._abs_err[i] / n if n else inf
                for i, (f, n) in enumerate(zip(self._forecasters, self._err_n))}

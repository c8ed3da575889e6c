"""Adaptive forecaster selection (the heart of the NWS methodology).

For every measurement stream, all forecasters in the bank predict the next
value; when it arrives, each method's error is accumulated, and forecasts
are served by the method with the lowest mean absolute error *so far*
(§2.2: the NWS "dynamically chooses the technique that yields the greatest
forecasting accuracy over time").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
    """A bank of competing forecasters over one measurement stream."""

    def __init__(self, forecasters: Optional[Sequence[Forecaster]] = None) -> None:
        self._forecasters = list(forecasters) if forecasters is not None else default_bank()
        if not self._forecasters:
            raise ValueError("bank needs at least one forecaster")
        names = [f.name for f in self._forecasters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate forecaster names in bank: {names}")
        self._abs_err = {f.name: 0.0 for f in self._forecasters}
        self._sq_err = {f.name: 0.0 for f in self._forecasters}
        self._err_n = {f.name: 0 for f in self._forecasters}
        self._n = 0
        self._last_value: Optional[float] = None
        #: The forecast served since the last update (None: not asked yet).
        self._served: Optional[Forecast] = None

    @property
    def samples(self) -> int:
        return self._n

    @property
    def last_value(self) -> Optional[float]:
        return self._last_value

    def update(self, value: float) -> None:
        """Observe a measurement: score every method's pending prediction
        against it, then let each method absorb it."""
        for f in self._forecasters:
            pred = f.forecast()
            if pred is not None:
                self._abs_err[f.name] += abs(pred - value)
                self._sq_err[f.name] += (pred - value) ** 2
                self._err_n[f.name] += 1
            f.update(value)
        self._n += 1
        self._last_value = value
        self._served = None

    def _winner(self) -> Optional[Forecaster]:
        best: Optional[Forecaster] = None
        best_mae = float("inf")
        for f in self._forecasters:
            n = self._err_n[f.name]
            if f.forecast() is None:
                continue
            # Methods that have never been scored rank behind scored ones
            # but remain eligible (cold start).
            mae = self._abs_err[f.name] / n if n else float("inf")
            if mae < best_mae or best is None:
                best = f
                best_mae = mae
        return best

    def forecast(self) -> Optional[Forecast]:
        """Serve the current winner's prediction; None with no history.
        The answer can only change when a sample arrives, so it is
        computed once per :meth:`update` however often it is read."""
        if self._served is not None:
            return self._served
        f = self._winner()
        if f is None:
            return None
        value = f.forecast()
        assert value is not None
        n = self._err_n[f.name]
        self._served = Forecast(
            value=value,
            method=f.name,
            mae=self._abs_err[f.name] / n if n else float("inf"),
            mse=self._sq_err[f.name] / n if n else float("inf"),
            samples=self._n,
        )
        return self._served

    def errors(self) -> dict[str, float]:
        """Per-method MAE so far (inf for never-scored methods)."""
        out = {}
        for f in self._forecasters:
            n = self._err_n[f.name]
            out[f.name] = self._abs_err[f.name] / n if n else float("inf")
        return out

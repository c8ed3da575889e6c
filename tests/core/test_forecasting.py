"""Tests for the NWS forecaster bank, adaptive selection, and dynamic
benchmarking."""

import bisect
import dataclasses
import math
import random
import tracemalloc
from collections import deque
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.forecasting import (
    Forecast,
    ForecastRegistry,
    ForecasterBank,
    event_tag,
)
from repro.core.forecasting.selector import METHODS


# ------------------------------------------------------ reference methods
#
# The NWS methods as one object each, as the bank was built from them
# before it became one pass over one ring. They are the reference the
# bank is compared against below.


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


# ---------------------------------------------------------------- methods


def feed(f, values):
    for v in values:
        f.update(v)
    return f.forecast()


def test_last_value():
    assert LastValue().forecast() is None
    assert feed(LastValue(), [1, 2, 3]) == 3


def test_running_mean():
    assert feed(RunningMean(), [1, 2, 3, 4]) == pytest.approx(2.5)


def test_sliding_mean_window():
    assert feed(SlidingMean(2), [1, 2, 3, 4]) == pytest.approx(3.5)
    assert feed(SlidingMean(10), [1, 2, 3]) == pytest.approx(2.0)


def test_sliding_mean_bad_window():
    with pytest.raises(ValueError):
        SlidingMean(0)


def test_sliding_median_odd_even():
    assert feed(SlidingMedian(5), [5, 1, 3]) == 3
    assert feed(SlidingMedian(5), [5, 1, 3, 9]) == pytest.approx(4.0)


def test_sliding_median_evicts_correctly():
    m = SlidingMedian(3)
    for v in [10, 1, 2, 3]:  # 10 evicted
        m.update(v)
    assert m.forecast() == 2


def test_exponential_smoothing():
    f = ExponentialSmoothing(0.5)
    f.update(10)
    assert f.forecast() == 10
    f.update(20)
    assert f.forecast() == pytest.approx(15)


def test_exponential_smoothing_validates_gain():
    with pytest.raises(ValueError):
        ExponentialSmoothing(0.0)
    with pytest.raises(ValueError):
        ExponentialSmoothing(1.5)


def test_trimmed_mean_drops_outliers():
    f = TrimmedMean(5, trim=1)
    for v in [100, 1, 2, 3, -50]:
        f.update(v)
    assert f.forecast() == pytest.approx(2.0)


def test_trimmed_mean_validates():
    with pytest.raises(ValueError):
        TrimmedMean(2, trim=1)


def test_adaptive_mean_tracks_step_change():
    slow = SlidingMean(50)
    fast = AdaptiveMean(short=5, long=50, threshold=0.25)
    series = [1.0] * 50 + [10.0] * 10
    for v in series:
        slow.update(v)
        fast.update(v)
    # The adaptive method must be much closer to the new regime.
    assert abs(fast.forecast() - 10.0) < abs(slow.forecast() - 10.0)
    assert fast.forecast() == pytest.approx(10.0, rel=0.05)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
@settings(max_examples=50)
def test_property_all_methods_bounded_by_history(values):
    """Every method's forecast lies within [min, max] of its history."""
    lo, hi = min(values), max(values)
    for f in default_bank():
        for v in values:
            f.update(v)
        fc = f.forecast()
        assert fc is not None
        assert lo - 1e-9 <= fc <= hi + 1e-9


@given(st.floats(min_value=-1e3, max_value=1e3), st.integers(min_value=1, max_value=100))
def test_property_constant_series_predicted_exactly(value, n):
    for f in default_bank():
        for _ in range(n):
            f.update(value)
        assert f.forecast() == pytest.approx(value)


def test_sliding_median_matches_numpy_reference():
    rng = np.random.default_rng(3)
    values = rng.normal(size=300)
    m = SlidingMedian(21)
    for i, v in enumerate(values):
        m.update(float(v))
        window = values[max(0, i - 20) : i + 1]
        assert m.forecast() == pytest.approx(float(np.median(window)))


# ---------------------------------------------------------------- bank


def test_method_table_is_the_reference_family():
    """The bank computes the reference family: the same names, in the
    order its winner scan breaks ties by."""
    assert METHODS == tuple(f.name for f in default_bank())
    assert len(set(METHODS)) == len(METHODS) == 16


def test_bank_empty_forecast_none():
    assert ForecasterBank().forecast() is None


def test_bank_serves_a_forecast_after_one_sample():
    b = ForecasterBank()
    b.update(5.0)
    fc = b.forecast()
    assert fc is not None
    assert fc.value == pytest.approx(5.0)
    assert fc.samples == 1


def test_bank_picks_low_error_method_for_noisy_stationary_series():
    rng = np.random.default_rng(0)
    b = ForecasterBank()
    for _ in range(500):
        b.update(float(10 + rng.normal(0, 1)))
    fc = b.forecast()
    # A smoothing method must beat last-value on iid noise.
    assert fc.method != "last"
    assert fc.value == pytest.approx(10, abs=0.5)


def test_bank_adapts_to_regime_change():
    b = ForecasterBank()
    for _ in range(100):
        b.update(1.0)
    for _ in range(30):
        b.update(20.0)
    assert b.forecast().value == pytest.approx(20.0, rel=0.3)


def test_bank_beats_or_matches_every_single_method():
    """The adaptive chooser's realized error is near the best single
    method's — the NWS selling point (ablation A3 checks this at scale)."""
    rng = np.random.default_rng(7)
    # Regime-switching series: hard for any single fixed method.
    series = []
    level = 5.0
    for i in range(600):
        if i % 150 == 0:
            level = float(rng.uniform(1, 20))
        series.append(level + float(rng.normal(0, 0.5)))

    bank = ForecasterBank()
    chooser_err = 0.0
    scored = 0
    for v in series:
        fc = bank.forecast()
        if fc is not None:
            chooser_err += abs(fc.value - v)
            scored += 1
        bank.update(v)
    chooser_mae = chooser_err / scored

    best_single = min(bank.errors().values())
    assert chooser_mae <= best_single * 1.5


def test_bank_errors_inf_before_scoring():
    b = ForecasterBank()
    assert b.errors() == dict.fromkeys(METHODS, math.inf)
    b.update(1.0)
    # Every method predicts from the first sample, scored from the second.
    assert b.errors() == dict.fromkeys(METHODS, math.inf)
    b.update(2.0)
    assert b.errors()["last"] == pytest.approx(1.0)
    assert all(math.isfinite(err) for err in b.errors().values())


def test_bank_first_index_wins_a_tie():
    """Of methods with the same MAE, the first in the table is served.
    After 3, 1 every method but ``last`` and the three slower smoothing
    gains predicts 2, so the third sample, 2, ties them all at MAE 1,
    and ``run_mean`` is the first of them (``last`` trails at 1.5)."""
    b = ForecasterBank()
    for value in (3.0, 1.0, 2.0):
        b.update(value)
    errors = b.errors()
    tied = [name for name in METHODS if errors[name] == min(errors.values())]
    assert tied[0] == "run_mean" and len(tied) > 1
    assert b.forecast().method == "run_mean"
    seed = SeedForecasterBank(_seed_family())
    for value in (3.0, 1.0, 2.0):
        seed.update(value)
    assert _state(b) == _state(seed)


# ---------------------------------------------------------------- registry


def test_registry_creates_banks_on_demand():
    reg = ForecastRegistry()
    tag = event_tag("h1/gossip", "PULL")
    assert reg.forecast(tag) is None
    reg.record(tag, 1.0)
    assert reg.forecast(tag).value == pytest.approx(1.0)
    assert len(reg) == 1
    assert reg.tags() == [tag]


def test_registry_timeout_default_then_dynamic():
    reg = ForecastRegistry()
    tag = "t"
    assert reg.timeout(tag, default=10.0) == 10.0
    for _ in range(20):
        reg.record(tag, 2.0)
    assert reg.timeout(tag, multiplier=4.0) == pytest.approx(8.0)


def test_registry_timeout_clamped():
    reg = ForecastRegistry()
    reg.record("fast", 0.001)
    assert reg.timeout("fast", multiplier=4.0, floor=0.5) == 0.5
    reg.record("slow", 1000.0)
    assert reg.timeout("slow", multiplier=4.0, ceiling=120.0) == 120.0


def test_event_tag_format():
    assert event_tag("h1/svc", "PING") == "h1/svc#PING"


def test_registry_drop_forgets_stream():
    reg = ForecastRegistry()
    reg.record("t", 1.0)
    assert len(reg) == 1
    reg.drop("t")
    assert len(reg) == 0
    assert reg.forecast("t") is None
    reg.drop("never-existed")  # idempotent


# ------------------------------------------------------- lazy == eager


class EagerRegistry:
    """What ForecastRegistry was before state became lazy: one bank per
    tag, built on first sight and updated on every record."""

    def __init__(self):
        self._banks = {}

    def bank(self, tag):
        if tag not in self._banks:
            self._banks[tag] = ForecasterBank()
        return self._banks[tag]

    def record(self, tag, value):
        self.bank(tag).update(value)

    def forecast(self, tag):
        return self._banks[tag].forecast() if tag in self._banks else None

    def drop(self, tag):
        self._banks.pop(tag, None)

    def tags(self):
        return list(self._banks)


_REGISTRY_OPS = st.lists(
    st.tuples(
        st.sampled_from(["record", "record", "record", "forecast", "timeout",
                         "drop", "bank"]),
        st.sampled_from(["a", "b", "c"]),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    max_size=200,
)


def _replayed(samples):
    """The forecast of a bank that has never served one before: fresh,
    fed ``samples``, asked once — what a memo must keep equalling."""
    bank = ForecasterBank()
    for value in samples:
        bank.update(value)
    return bank.forecast()


@given(ops=_REGISTRY_OPS)
@settings(max_examples=150, deadline=None)
def test_lazy_registry_serves_exactly_what_eager_updating_serves(ops):
    lazy, eager = ForecastRegistry(), EagerRegistry()
    samples = {}  # tag -> every value recorded since its last drop
    for op, tag, value in ops:
        if op == "record":
            lazy.record(tag, value)
            eager.record(tag, value)
            samples.setdefault(tag, []).append(value)
        elif op == "forecast":
            # Forecast is a dataclass: value, method, mae, mse, samples.
            # The eager bank has served (and memoised) forecasts at other
            # points of the interleaving than the lazy one; the replayed
            # bank never has.
            served = lazy.forecast(tag)
            assert served == eager.forecast(tag)
            assert served == _replayed(samples.get(tag, ()))
        elif op == "timeout":
            want = _replayed(samples.get(tag, ()))
            want = 10.0 if want is None else min(max(want.value * 4.0, 0.5), 120.0)
            assert lazy.timeout(tag) == want
        elif op == "drop":
            lazy.drop(tag)
            eager.drop(tag)
            samples.pop(tag, None)
        else:
            got, want = lazy.bank(tag), eager.bank(tag)
            assert got is lazy.bank(tag)
            assert (got.samples, got.last_value, got.errors(), got.forecast()) == (
                want.samples, want.last_value, want.errors(), want.forecast())
        # Unread streams count as streams.
        assert lazy.tags() == eager.tags()
        assert len(lazy) == len(eager.tags())
    for tag in eager.tags():
        assert lazy.forecast(tag) == eager.forecast(tag)


def test_forecast_is_frozen_and_served_from_a_memo_until_the_next_sample():
    bank = ForecasterBank()
    assert bank.forecast() is None
    bank.update(3.0)
    first = bank.forecast()
    assert bank.forecast() is first  # no sample since: the same object
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.value = 99.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.samples += 1
    bank.update(3.0)  # one sample, even an identical one, invalidates
    second = bank.forecast()
    assert second is not first and bank.forecast() is second
    assert (first.samples, second.samples) == (1, 2)
    reg = ForecastRegistry()
    reg.record("t", 1.0)
    assert reg.forecast("t") is reg.forecast("t")
    reg.record("t", 2.0)
    assert reg.forecast("t").samples == 2


def test_unread_stream_builds_no_bank_until_the_log_is_full(monkeypatch):
    built = []

    class CountedBank(ForecasterBank):
        __slots__ = ()

        def __init__(self):
            built.append(1)
            super().__init__()

    monkeypatch.setattr("repro.core.forecasting.benchmarking.ForecasterBank",
                        CountedBank)
    reg = ForecastRegistry()
    for i in range(49):
        reg.record("t", float(i))
    assert built == [] and len(reg) == 1 and reg.tags() == ["t"]
    reg.record("t", 49.0)  # 50 samples: materialised, the log is gone
    assert built == [1]
    for i in range(50, 500):
        reg.record("t", float(i))
    assert built == [1]
    fc = reg.forecast("t")
    assert (fc.samples, fc.method, fc.value) == (500, "last", 499.0)
    assert reg.forecast("t") is fc and reg.timeout("t") == 120.0
    assert built == [1]
    reg.record("u", 1.0)
    assert reg.timeout("u") == 4.0 and built == [1, 1]  # read: replayed


def test_a_warm_bank_holds_at_most_6_kib():
    """Sixteen methods over one ring cost a few numbers each: 200 banks
    warmed with 60 samples (and one read) retain ≤ 6 KiB apiece beyond
    the samples themselves, which the caller allocated. Sixteen
    forecaster objects with ten private windows of the same samples
    held ≈ 18 KiB."""
    rng = random.Random(5)
    streams = [[rng.random() for _ in range(60)] for _ in range(200)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        banks = []
        for stream in streams:
            bank = ForecasterBank()
            for value in stream:
                bank.update(value)
            bank.forecast()
            banks.append(bank)
        per_bank = (tracemalloc.get_traced_memory()[0] - before) / len(banks)
    finally:
        tracemalloc.stop()
    assert per_bank <= 6 * 1024, f"{per_bank:.0f} bytes per bank"


# ------------------------------------------- seed bank == one-pass bank


class SeedTrimmedMean(TrimmedMean):
    """``TrimmedMean`` as it was before it computed its forecast in
    ``update``: the window is sorted on every read."""

    def update(self, value):
        self._values.append(value)

    def forecast(self):
        if not self._values:
            return None
        ordered = sorted(self._values)
        if len(ordered) > 2 * self._trim:
            ordered = ordered[self._trim : len(ordered) - self._trim]
        return sum(ordered) / len(ordered)


class SeedAdaptiveMean(AdaptiveMean):
    """``AdaptiveMean`` as it was before it computed its forecast in
    ``update``: the kept history is summed again on every read."""

    def update(self, value):
        self._values.append(value)
        if len(self._values) > self._short:
            recent = list(self._values)[-self._short :]
            s_mean = sum(recent) / len(recent)
            l_mean = sum(self._values) / len(self._values)
            scale = max(abs(l_mean), 1e-12)
            if abs(s_mean - l_mean) / scale > self._threshold:
                self._values = deque(recent, maxlen=self._long)

    def forecast(self):
        if not self._values:
            return None
        return sum(self._values) / len(self._values)


class SeedForecasterBank:
    """A verbatim copy of ``ForecasterBank`` before it stored each
    method's prediction: every method is asked in ``update`` to score it
    and again in ``_winner``, and errors live in dicts keyed by name."""

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


def _seed_family():
    """``default_bank()`` with the two methods whose forecast moved into
    ``update`` swapped for their earlier, read-time versions."""
    return [SeedTrimmedMean(10, 2) if isinstance(f, TrimmedMean)
            else SeedAdaptiveMean() if isinstance(f, AdaptiveMean) else f
            for f in default_bank()]


def _served(bank):
    """What a bank serves, compared by ``repr`` so ``-0.0`` and ``0.0``
    (and ``1`` and ``1.0``) differ."""
    fc = bank.forecast()
    if fc is None:
        return None
    return tuple(repr(getattr(fc, name))
                 for name in ("value", "method", "mae", "mse", "samples"))


def _state(bank):
    return (_served(bank), {k: repr(v) for k, v in bank.errors().items()},
            bank.samples, repr(bank.last_value))


def _seed_raises(seed, value):
    """Feed the seed bank one sample. A squared error past ~1.3e154
    overflows (``float ** 2`` raises) and leaves it half-updated: the
    methods before the one that raised have absorbed the sample."""
    try:
        seed.update(value)
    except OverflowError:
        return True
    return False


#: Near the largest float, two samples overflow a running sum and a
#: smoothing state swings to ±inf and then NaN: predictions and errors
#: reach inf and NaN.
_HUGE = (1.7e308, -1.7e308, 1e308, -1e308, 8.9e307)
_SAMPLE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 5e-324, *_HUGE]),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-2**60, max_value=2**60),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
#: Finite streams with runs of repeats: (value, how many times) pairs.
_STREAMS = st.lists(st.tuples(_SAMPLE, st.integers(min_value=1, max_value=12)),
                    max_size=40).map(
    lambda runs: [value for value, times in runs for _ in range(times)])


@given(stream=_STREAMS, read_every=st.integers(1, 4))
# An int sample stays an int in every method that keeps it (last value,
# an odd median, a first smoothing state): here 2**53 + 1 - 3 is exact,
# float(2**53 + 1) - 3 is not.
@example(stream=[2**53 + 1, 3], read_every=1)
@settings(max_examples=300, deadline=None)
def test_bank_serves_exactly_what_the_seed_bank_served(stream, read_every):
    new, seed = ForecasterBank(), SeedForecasterBank(_seed_family())
    assert _state(new) == _state(seed)
    for i, value in enumerate(stream):
        before = _state(new)
        new.update(value)
        if _seed_raises(seed, value):
            # Where the seed bank raised, the new one refuses the sample
            # whole; the half-updated seed bank is no reference after it.
            assert _state(new) == before and new.rejected == 1
            return
        assert {k: repr(v) for k, v in new.errors().items()} == {
            k: repr(v) for k, v in seed.errors().items()}
        if i % read_every == 0:  # memoised reads at varying points
            assert _state(new) == _state(seed)
    assert _state(new) == _state(seed) and new.rejected == 0


def test_overflowing_predictions_are_served_as_the_seed_bank_served():
    """Predictions at ±inf and NaN, errors at inf and NaN: the one-pass
    bank does the seed bank's float operations in the seed bank's order,
    overflow included."""
    big = 1.7e308
    stream = [-big, -big, big, -big, big, -big, -big, -big, -big, -big, big]
    new, seed = ForecasterBank(), SeedForecasterBank(_seed_family())
    for value in stream:
        new.update(value)
        assert not _seed_raises(seed, value)
        assert _state(new) == _state(seed)
    errors = new.errors()
    assert any(math.isnan(err) for err in errors.values())
    assert any(math.isinf(err) for err in errors.values())
    assert new.rejected == 0


@given(stream=_STREAMS, cut=st.integers(0, 120))
@settings(max_examples=150, deadline=None)
def test_replayed_bank_serves_exactly_what_the_seed_bank_served(stream, cut):
    """The same for a bank the registry builds by replaying its log (read
    first after ``cut`` samples, or when the log fills), against a bank
    updated eagerly and, until it raises, the seed bank."""
    reg = ForecastRegistry()
    eager = ForecasterBank()
    seed = SeedForecasterBank(_seed_family())
    seed_ok = True
    for i, value in enumerate(stream):
        reg.record("t", value)
        eager.update(value)
        seed_ok = seed_ok and not _seed_raises(seed, value)
        if i + 1 >= cut:
            bank = reg.bank("t")
            assert (_state(bank), bank.rejected) == (_state(eager), eager.rejected)
            if seed_ok:
                assert _state(bank) == _state(seed)


# --------------------------------------------------- non-finite samples


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(stream=st.lists(st.one_of(
           st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
           _NON_FINITE), max_size=150))
@settings(max_examples=150, deadline=None)
def test_non_finite_samples_are_refused_and_counted(stream):
    """A bank fed NaN and ±inf in between serves exactly what a bank that
    never saw them serves, and so does a registry's replayed log."""
    fed, clean = ForecasterBank(), ForecasterBank()
    lazy, eager = ForecastRegistry(), ForecastRegistry()
    for value in stream:
        fed.update(value)
        lazy.record("t", value)
        if math.isfinite(value):
            clean.update(value)
            eager.record("t", value)
        assert _state(fed) == _state(clean)
    assert fed.rejected == sum(not math.isfinite(v) for v in stream)
    assert clean.rejected == 0
    assert lazy.forecast("t") == eager.forecast("t")
    if stream:
        assert _state(lazy.bank("t")) == _state(eager.bank("t"))


def test_one_nan_no_longer_switches_method_selection_off():
    """Ten 1.0s, one NaN, then more samples: before non-finite samples
    were refused, every method's error was NaN from then on and the bank
    was stuck serving ``last``."""
    fed, clean = ForecasterBank(), ForecasterBank()
    after = [1.0, 3.0] * 50  # last-value is the worst method here
    for value in [1.0] * 10 + [math.nan] + after:
        fed.update(value)
    for value in [1.0] * 10 + after:
        clean.update(value)
    assert all(math.isfinite(err) for err in fed.errors().values())
    assert fed.forecast().method != "last"
    assert _state(fed) == _state(clean)
    assert (fed.samples, fed.rejected) == (110, 1)
    reg = ForecastRegistry()
    reg.record("t", math.inf)  # a stream, like an eager bank's, but empty
    assert reg.tags() == ["t"] and reg.forecast("t") is None

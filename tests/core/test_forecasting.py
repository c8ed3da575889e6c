"""Tests for the NWS forecaster bank, adaptive selection, and dynamic
benchmarking."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forecasting import (
    AdaptiveMean,
    EventTimer,
    ExponentialSmoothing,
    ForecastRegistry,
    ForecasterBank,
    LastValue,
    RunningMean,
    SlidingMean,
    SlidingMedian,
    TrimmedMean,
    default_bank,
    event_tag,
)


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


def test_bank_duplicate_names_rejected():
    with pytest.raises(ValueError):
        ForecasterBank([LastValue(), LastValue()])


def test_bank_empty_rejected():
    with pytest.raises(ValueError):
        ForecasterBank([])


def test_bank_errors_inf_before_scoring():
    b = ForecasterBank([LastValue()])
    assert b.errors() == {"last": float("inf")}
    b.update(1.0)
    assert b.errors() == {"last": float("inf")}  # scored only from 2nd sample
    b.update(2.0)
    assert b.errors()["last"] == pytest.approx(1.0)


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


# ---------------------------------------------------------------- timer


def test_event_timer_records_duration():
    reg = ForecastRegistry()
    timer = EventTimer(reg)
    timer.begin("t", now=10.0)
    d = timer.end("t", now=12.5)
    assert d == pytest.approx(2.5)
    assert reg.forecast("t").value == pytest.approx(2.5)


def test_event_timer_concurrent_tokens():
    reg = ForecastRegistry()
    timer = EventTimer(reg)
    timer.begin("t", now=0.0, token=1)
    timer.begin("t", now=1.0, token=2)
    assert timer.end("t", now=5.0, token=2) == pytest.approx(4.0)
    assert timer.end("t", now=5.0, token=1) == pytest.approx(5.0)
    assert timer.open_count == 0


def test_event_timer_end_without_begin_is_none():
    timer = EventTimer(ForecastRegistry())
    assert timer.end("ghost", now=1.0) is None


def test_event_timer_abandon():
    reg = ForecastRegistry()
    timer = EventTimer(reg)
    timer.begin("t", now=0.0)
    timer.abandon("t")
    assert timer.end("t", now=9.0) is None
    assert reg.forecast("t") is None


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

    def __init__(self, bank_factory=None):
        self._factory = bank_factory
        self._banks = {}

    def bank(self, tag):
        if tag not in self._banks:
            self._banks[tag] = ForecasterBank(
                self._factory() if self._factory else None)
        return self._banks[tag]

    def record(self, tag, value):
        self.bank(tag).update(value)

    def forecast(self, tag):
        return self._banks[tag].forecast() if tag in self._banks else None

    def drop(self, tag):
        self._banks.pop(tag, None)

    def tags(self):
        return list(self._banks)


def _wide_bank():
    # A window beyond the registry's 50-sample log cap: equivalence must
    # not depend on the cap covering every forecaster's memory.
    return [LastValue(), SlidingMean(3), SlidingMedian(60), AdaptiveMean()]


_REGISTRY_OPS = st.lists(
    st.tuples(
        st.sampled_from(["record", "record", "record", "forecast", "timeout",
                         "drop", "bank"]),
        st.sampled_from(["a", "b", "c"]),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    max_size=200,
)


def _replayed(factory, samples):
    """The forecast of a bank that has never served one before: fresh,
    fed ``samples``, asked once — what a memo must keep equalling."""
    bank = ForecasterBank(factory() if factory else None)
    for value in samples:
        bank.update(value)
    return bank.forecast()


@given(ops=_REGISTRY_OPS, factory=st.sampled_from([None, _wide_bank]))
@settings(max_examples=150, deadline=None)
def test_lazy_registry_serves_exactly_what_eager_updating_serves(ops, factory):
    lazy, eager = ForecastRegistry(factory), EagerRegistry(factory)
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
            assert served == _replayed(factory, samples.get(tag, ()))
        elif op == "timeout":
            want = _replayed(factory, samples.get(tag, ()))
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


def test_unread_stream_builds_no_bank_until_the_log_is_full():
    built = []

    def factory():
        built.append(1)
        return [LastValue(), RunningMean()]

    reg = ForecastRegistry(factory)
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

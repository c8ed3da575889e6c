"""The black-box objectives: pure, deterministic, self-checking.

Determinism here is what makes the whole subsystem twin-able: the same
spec must evaluate to the same value (and digest) on any host, any
plane, any number of times.
"""

import json
import math
import random
import struct
import zlib

import pytest

from repro.core.services.kinds import ResultCheckError
from repro.explore import (
    EVAL_FUNCTIONS,
    EVAL_KIND,
    check_eval_result,
    evaluate,
    execute_unit,
    make_eval_spec,
    validate_eval,
)


def test_make_eval_spec_shape_and_validation():
    spec = make_eval_spec("sphere", {"y": 2, "x": 1}, seed=5, tag={"g": 0})
    assert spec["kind"] == EVAL_KIND
    assert spec["params"] == {"x": 1.0, "y": 2.0}   # sorted, floated
    assert spec["tag"] == {"g": 0}
    validate_eval(spec)


@pytest.mark.parametrize("bad", [
    {"kind": "wrong", "fn": "sphere", "params": {"x": 1.0},
     "seed": 0, "ops_budget": 1.0},
    {"kind": EVAL_KIND, "fn": "nope", "params": {"x": 1.0},
     "seed": 0, "ops_budget": 1.0},
    {"kind": EVAL_KIND, "fn": "sphere", "params": {},
     "seed": 0, "ops_budget": 1.0},
    {"kind": EVAL_KIND, "fn": "sphere", "params": {"x": "nan?"},
     "seed": 0, "ops_budget": 1.0},
    {"kind": EVAL_KIND, "fn": "sphere", "params": {"x": 1.0},
     "seed": 0, "ops_budget": 0.0},
])
def test_validate_eval_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        validate_eval(bad)


@pytest.mark.parametrize("fn", sorted(EVAL_FUNCTIONS))
def test_evaluate_is_deterministic_and_seed_sensitive(fn):
    params = {"bias": 0.3, "damping": 0.5, "nudging": 0.1}
    spec = make_eval_spec(fn, params, seed=3)
    a, b = evaluate(spec), evaluate(spec)
    assert a == b                                   # same spec, same bytes
    other = evaluate(make_eval_spec(fn, params, seed=4))
    assert other["value"] != a["value"]             # seeds shift the fn
    assert isinstance(a["value"], float)
    assert a["digest"] == evaluate(spec)["digest"]


def test_execute_unit_ignores_queue_bookkeeping_fields():
    spec = make_eval_spec("rastrigin", {"x": 0.5, "y": -0.5}, seed=1)
    unit = dict(spec, id="job-17", trace=[1, 2])
    assert execute_unit(unit) == evaluate(spec)


def test_check_eval_result_accepts_honest_work():
    spec = make_eval_spec("forecast",
                          {"bias": 0.0, "damping": 0.5, "nudging": 0.2},
                          seed=9)
    check_eval_result(spec, evaluate(spec))         # no raise


def test_check_eval_result_rejects_corruption():
    spec = make_eval_spec("sphere", {"x": 1.0, "y": 1.0}, seed=2)
    honest = evaluate(spec)
    with pytest.raises(ResultCheckError):
        check_eval_result(spec, {**honest, "value": honest["value"] + 1.0})
    with pytest.raises(ResultCheckError):
        check_eval_result(spec, {**honest, "digest": "00000000"})
    with pytest.raises(ResultCheckError):
        check_eval_result(spec, None)
    with pytest.raises(ResultCheckError):
        check_eval_result(spec, {})


def test_check_eval_result_rejects_a_value_off_by_one_ulp():
    """The check is a full recomputation, not a plausibility test: the
    nearest representable neighbour of the true value is still wrong,
    even under a digest that is consistent with it."""
    from repro.explore.evals import _digest

    spec = make_eval_spec("forecast",
                          {"bias": 0.1, "damping": 0.6, "nudging": 0.4},
                          seed=7)
    honest = evaluate(spec)
    for neighbour in (math.nextafter(honest["value"], math.inf),
                      math.nextafter(honest["value"], -math.inf)):
        forged = {**honest, "value": neighbour,
                  "digest": _digest(honest["fn"], honest["params"],
                                    honest["seed"], neighbour)}
        with pytest.raises(ResultCheckError):
            check_eval_result(spec, forged)
        with pytest.raises(ResultCheckError):
            check_eval_result(spec, {**honest, "value": neighbour})


def test_a_nan_spec_is_done_after_one_honest_round():
    """NaN never equals NaN: unless the value check lets a NaN result
    agree with a NaN re-evaluation, every honest result of a spec with a
    NaN param is rejected and requeued at the front, forever. The digest
    is still compared."""
    from repro.control.workqueue import WorkQueue

    queue = WorkQueue()
    job = queue.submit({"kind": EVAL_KIND, "fn": "sphere",
                        "params": {"x": math.nan}, "seed": 1,
                        "ops_budget": 1.0}, 0.0)
    honest = execute_unit(queue.next_unit())
    assert math.isnan(honest["value"])
    queue.complete(job.id, honest, 1.0)
    assert job.state == "done" and queue.results_rejected == 0
    spec = make_eval_spec("sphere", {"x": math.nan}, seed=1)
    for forged in ({**honest, "digest": "00000000"}, {**honest, "value": 0.0}):
        with pytest.raises(ResultCheckError):
            check_eval_result(spec, forged)


def test_a_nan_value_for_a_finite_spec_is_rejected():
    from repro.explore.evals import _digest

    spec = make_eval_spec("sphere", {"x": 1.0, "y": 1.0}, seed=2)
    honest = evaluate(spec)
    for forged in ({**honest, "value": math.nan},
                   {**honest, "value": math.nan,
                    "digest": _digest(honest["fn"], honest["params"],
                                      honest["seed"], math.nan)}):
        with pytest.raises(ResultCheckError):
            check_eval_result(spec, forged)


def _forecast_uncached(params, seed):
    """`_forecast` as it was before the per-seed memo: every shock
    re-derived from its CRC on every call."""
    from repro.explore import evals

    bias, damping, nudging = (float(params.get(k, d)) for k, d in
                              (("bias", 0.0), ("damping", 0.5),
                               ("nudging", 0.0)))
    truth = model = err = 0.0
    for t in range(evals._FORECAST_STEPS):
        shock = evals._unit_hash("forecast", seed, t) * 2.0 - 1.0
        truth = evals._TRUTH_PERSISTENCE * truth + shock
        model = (damping * model + nudging * (truth - model) + bias
                 + evals._OBS_QUALITY * shock)
        err += (model - truth) ** 2
    return math.sqrt(err / evals._FORECAST_STEPS)


def test_forecast_memo_is_bit_identical_and_bounded():
    from repro.explore.evals import _forecast, _shocks

    rng = random.Random(19)
    for _ in range(200):
        params = {"bias": rng.uniform(-1, 1), "damping": rng.uniform(0, 1),
                  "nudging": rng.uniform(0, 1)}
        seed = rng.randrange(-5, 10 ** 6)
        # == on floats: bit-identical, not approximately equal.
        assert _forecast(params, seed) == _forecast_uncached(params, seed)
        assert _forecast(params, seed) == _forecast_uncached(params, seed)
    info = _shocks.cache_info()
    assert info.currsize <= info.maxsize == 64
    # The memo keys on the seed as the hash sees it (its str()): 1, 1.0
    # and True are three different landscapes, cached or not.
    params = {"bias": 0.1, "damping": 0.6, "nudging": 0.4}
    for seed in (1, 1.0, True):
        assert _forecast(params, seed) == _forecast_uncached(params, seed)


def _offsets_uncached(fn, seed, names):
    from repro.explore import evals

    return {name: evals._unit_hash(fn, seed, name) * 2.0 - 1.0
            for name in names}


def _objective_uncached(fn, params, seed):
    """The three objectives as they were before any memo: every shift
    and shock re-derived from its CRC on every call."""
    if fn == "forecast":
        return _forecast_uncached(params, seed)
    off = _offsets_uncached(fn, seed, sorted(params))
    if fn == "sphere":
        return sum((float(v) - off[k]) ** 2 for k, v in params.items())
    total = 10.0 * len(params)
    for k, v in params.items():
        x = float(v) - off[k]
        total += x * x - 10.0 * math.cos(2.0 * math.pi * x)
    return total


def _evaluate_uncached(spec):
    """`evaluate` without memo or shared encoder: the digest payload is
    rendered by json.dumps itself."""
    params = {str(k): float(v) for k, v in sorted(spec["params"].items())}
    seed, fn = int(spec["seed"]), str(spec["fn"])
    value = round(_objective_uncached(fn, params, seed), 12)
    payload = json.dumps(
        {"fn": fn, "params": params, "seed": seed, "value": value},
        sort_keys=True, separators=(",", ":"))
    return value, format(zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF,
                         "08x")


def _bits(value):
    """A float's exact bits (NaN compares equal to itself here)."""
    return struct.pack("<d", value)


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:       # math.cos(inf): both sides must raise
        return type(exc)


def test_memos_and_shared_encoder_are_bit_identical_and_bounded():
    from repro.explore import evals

    rng = random.Random(48)
    odd = [float("nan"), float("inf"), float("-inf")]
    names = ["x", "y", "bias", "damping", "nudging", "é", "ßeta", "日"]
    for i in range(600):
        fn = ("sphere", "rastrigin", "forecast")[i % 3]
        keys = rng.sample(names, rng.randint(1, 4))
        if fn == "forecast" and i % 2:
            keys = ["bias", "damping", "nudging"]
        params = {k: (rng.choice(odd) if rng.random() < 0.1
                      else rng.uniform(-3, 3)) for k in keys}
        spec = make_eval_spec(fn, params, seed=rng.randrange(-3, 40))
        expected = _outcome(_evaluate_uncached, spec)
        for _ in range(2):          # a miss, then a hit
            got = _outcome(evaluate, spec)
            if isinstance(expected, tuple):
                got = (got["value"], got["digest"])
                assert (_bits(got[0]), got[1]) == (_bits(expected[0]),
                                                   expected[1]), spec
            else:
                assert got is expected, spec
    # The memos key on the seed as the hash sees it (its str()): 1, 1.0
    # and True are three different landscapes, cached or not.
    params = {"bias": 0.1, "damping": 0.6, "nudging": 0.4, "é": 0.2}
    for seed in (1, 1.0, True) * 2:
        for fn in ("sphere", "rastrigin", "forecast"):
            assert (evals._offsets(fn, seed, tuple(sorted(params)))
                    == _offsets_uncached(fn, seed, sorted(params)))
            assert _bits(EVAL_FUNCTIONS[fn](params, seed)) == _bits(
                _objective_uncached(fn, params, seed))
        assert evals._shocks(seed) == tuple(
            evals._unit_hash("forecast", seed, t) * 2.0 - 1.0
            for t in range(evals._FORECAST_STEPS))
    for memo in (evals._offsets, evals._shocks, evals._truth):
        info = memo.cache_info()
        assert 0 < info.currsize <= info.maxsize, memo

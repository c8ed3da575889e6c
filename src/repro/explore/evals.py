"""Black-box evaluation functions for model exploration.

An explore *task* is a work-unit spec of kind ``explore.eval``::

    {"kind": "explore.eval", "fn": "forecast",
     "params": {"bias": 0.1, "damping": 0.6, "nudging": 0.4},
     "seed": 7, "ops_budget": 20000.0}

and its *result* is the deterministic objective value at those
parameters, plus a digest over the canonical (fn, params, seed, value)
tuple. Determinism is the load-bearing property: it makes evaluations
restart-safe (a requeued task re-executes to the identical result, no
checkpoint needed), it makes the simulated twin byte-identical, and it
gives the §3.1 distrust-remote-results discipline its teeth —
:func:`check_eval_result` simply *recomputes* the evaluation and rejects
any completion that disagrees. The recomputation is cheap pure-python
math; what the workers "pay" is the unit's ``ops_budget`` of grid time,
which is exactly the asymmetry that made re-verification practical for
the paper's counter-examples.

Objectives (all minimized, all seed-shifted so every restart/sweep
explores a genuinely different landscape):

* ``sphere`` — convex bowl; sanity-check landscape.
* ``rastrigin`` — the classic multimodal trap; exercises random
  restarts.
* ``forecast`` — a tiny damped-AR(1) forecast model scored by RMSE
  against a seeded synthetic truth series: the Nimble@ITCEcnoGrid
  parameter-sweep weather-forecasting workload in miniature
  (tune ``bias``/``damping``/``nudging`` to minimize forecast error).
"""

from __future__ import annotations

import json
import math
import zlib
from functools import lru_cache
from typing import Optional

from ..core.services.kinds import ResultCheckError

__all__ = [
    "EVAL_FUNCTIONS",
    "EVAL_KIND",
    "check_eval_result",
    "evaluate",
    "execute_unit",
    "make_eval_spec",
    "validate_eval",
]

EVAL_KIND = "explore.eval"

#: Decimal places kept on objective values: enough that distinct params
#: stay distinct, few enough that the JSON stays tidy and the digest is
#: over a canonical rendering.
VALUE_DECIMALS = 12


def _unit_hash(*parts) -> float:
    """Deterministic pseudo-random float in [0, 1) from a key tuple."""
    key = ":".join(str(p) for p in parts).encode("utf-8")
    return (zlib.crc32(key) & 0xFFFFFFFF) / 4294967296.0


def _offsets(fn: str, seed: int, names) -> dict:
    """Per-parameter optimum shifts in [-1, 1] — the seed moves the
    landscape so independent sweeps/restarts are not redundant."""
    return {name: _unit_hash(fn, seed, name) * 2.0 - 1.0
            for name in names}


def _sphere(params: dict, seed: int) -> float:
    off = _offsets("sphere", seed, sorted(params))
    return sum((float(v) - off[k]) ** 2 for k, v in params.items())


def _rastrigin(params: dict, seed: int) -> float:
    off = _offsets("rastrigin", seed, sorted(params))
    total = 10.0 * len(params)
    for k, v in params.items():
        x = float(v) - off[k]
        total += x * x - 10.0 * math.cos(2.0 * math.pi * x)
    return total


#: Forecast-model constants: truth persistence, observation quality
#: (the forecaster sees an imperfect shock estimate), series length.
_TRUTH_PERSISTENCE = 0.82
_OBS_QUALITY = 0.6
_FORECAST_STEPS = 64


@lru_cache(maxsize=64, typed=True)
def _shocks(seed: int) -> tuple:
    """The truth series' innovations in [-1, 1): a constant of the seed,
    so neither an evaluation nor its §3.1 re-evaluation recomputes it
    (``typed``: the hash keys on ``str(seed)``, and 1 != 1.0 there)."""
    return tuple(_unit_hash("forecast", seed, t) * 2.0 - 1.0
                 for t in range(_FORECAST_STEPS))


def _forecast(params: dict, seed: int) -> float:
    """RMSE of a damped-persistence forecast against a seeded synthetic
    truth series — minimize over bias/damping/nudging."""
    bias = float(params.get("bias", 0.0))
    damping = float(params.get("damping", 0.5))
    nudging = float(params.get("nudging", 0.0))
    truth = 0.0
    model = 0.0
    err = 0.0
    for shock in _shocks(seed):
        truth = _TRUTH_PERSISTENCE * truth + shock
        model = (damping * model + nudging * (truth - model) + bias
                 + _OBS_QUALITY * shock)
        err += (model - truth) ** 2
    return math.sqrt(err / _FORECAST_STEPS)


EVAL_FUNCTIONS = {
    "sphere": _sphere,
    "rastrigin": _rastrigin,
    "forecast": _forecast,
}


def make_eval_spec(fn: str, params: dict, seed: int = 0,
                   ops_budget: float = 20_000.0,
                   tag: Optional[dict] = None) -> dict:
    """Build one evaluation spec. ``tag`` is ME-algorithm bookkeeping
    (restart/generation/candidate indices); it rides the spec untouched
    and is excluded from the result digest."""
    spec = {
        "kind": EVAL_KIND,
        "fn": str(fn),
        "params": {str(k): float(v) for k, v in sorted(params.items())},
        "seed": int(seed),
        "ops_budget": float(ops_budget),
    }
    if tag is not None:
        spec["tag"] = dict(tag)
    return spec


def validate_eval(spec: dict) -> None:
    """Raise ValueError if the spec is not an executable evaluation."""
    if spec.get("kind") != EVAL_KIND:
        raise ValueError(f"not an {EVAL_KIND} spec: {spec.get('kind')!r}")
    fn = spec.get("fn")
    if fn not in EVAL_FUNCTIONS:
        raise ValueError(f"unknown evaluation function {fn!r}")
    params = spec.get("params")
    if not isinstance(params, dict) or not params:
        raise ValueError("params must be a non-empty object")
    for key, value in params.items():
        if not isinstance(key, str) or isinstance(value, bool) \
                or not isinstance(value, (int, float)):
            raise ValueError(f"param {key!r} must map a string to a number")
    if "seed" not in spec:
        raise ValueError("evaluation spec missing 'seed'")
    if float(spec.get("ops_budget", 0.0)) <= 0:
        raise ValueError("ops_budget must be positive")


def _digest(fn: str, params: dict, seed: int, value: float) -> str:
    payload = json.dumps(
        {"fn": fn, "params": params, "seed": seed, "value": value},
        sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF, "08x")


def evaluate(spec: dict) -> dict:
    """Execute one evaluation; deterministic in the spec alone."""
    validate_eval(spec)
    params = {str(k): float(v) for k, v in sorted(spec["params"].items())}
    seed = int(spec["seed"])
    fn = str(spec["fn"])
    value = round(EVAL_FUNCTIONS[fn](params, seed), VALUE_DECIMALS)
    return {
        "kind": EVAL_KIND,
        "fn": fn,
        "params": params,
        "seed": seed,
        "value": value,
        "digest": _digest(fn, params, seed, value),
    }


def execute_unit(unit: dict) -> dict:
    """Execute a unit dict as handed out by the scheduler (spec plus
    ``id``/``trace`` extras, which evaluation ignores)."""
    return evaluate({k: v for k, v in unit.items()
                     if k not in ("id", "trace")})


def check_eval_result(spec: dict, result: Optional[dict]) -> None:
    """The kind's §3.1 sanity check: recompute the evaluation and reject
    any completion whose value or digest disagrees."""
    if not isinstance(result, dict):
        raise ResultCheckError("evaluation result is not an object")
    expected = evaluate({k: v for k, v in spec.items()
                         if k not in ("id", "trace")})
    if result.get("value") != expected["value"]:
        raise ResultCheckError(
            f"value {result.get('value')!r} disagrees with independent "
            f"re-evaluation {expected['value']!r}")
    if result.get("digest") != expected["digest"]:
        raise ResultCheckError(
            f"digest {result.get('digest')!r} disagrees with independent "
            f"re-evaluation {expected['digest']!r}")

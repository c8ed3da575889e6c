"""Work units for the distributed Ramsey search.

A work unit is a JSON-safe dict describing one slice of the search space:
which problem size, which heuristic, which random seed (the "subspace" —
independent seeded restarts partition the stochastic search, the
practical analog of the paper's branch-and-bound pruning coordination),
an operation budget, and optionally a ``resume`` snapshot when the unit
was migrated from another client mid-flight.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

import numpy as np

from ..core.services.kinds import ResultCheckError, register_kind
from .graphs import OpCounter
from .heuristics import SearchSnapshot, make_search

__all__ = ["check_ramsey_result", "make_unit", "ramsey_job_spec",
           "unit_generator", "run_unit", "validate_ramsey_spec",
           "validate_unit"]

HEURISTICS = ("tabu", "anneal", "minconflict")


def make_unit(
    uid: str,
    k: int,
    n: int,
    heuristic: str = "tabu",
    seed: int = 0,
    ops_budget: float = 1e9,
) -> dict:
    """Build one work-unit dict."""
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    return {
        "id": uid,
        "k": int(k),
        "n": int(n),
        "heuristic": heuristic,
        "seed": int(seed),
        "ops_budget": float(ops_budget),
    }


def ramsey_job_spec(rng: random.Random, k: int = 8, n: int = 4,
                    ops_budget: float = 250_000.0) -> dict:
    """One externally-submitted job spec the Ramsey clients can execute:
    a work unit minus the ``id`` (the gateway assigns ids)."""
    heuristic = HEURISTICS[rng.randrange(len(HEURISTICS))]
    spec = make_unit("", k, n, heuristic, rng.randrange(1 << 20), ops_budget)
    del spec["id"]
    return spec


def validate_unit(unit: dict) -> None:
    """Raise ValueError if the unit is not executable."""
    for field in ("id", "k", "n", "heuristic", "seed", "ops_budget"):
        if field not in unit:
            raise ValueError(f"work unit missing {field!r}")
    if unit["heuristic"] not in HEURISTICS:
        raise ValueError(f"unknown heuristic {unit['heuristic']!r}")
    if int(unit["k"]) < int(unit["n"]):
        raise ValueError("unit has k < n")


def validate_ramsey_spec(spec: dict) -> None:
    """Like :func:`validate_unit` for gateway-side *specs*, which have
    no ``id`` yet (the gateway assigns one at submit)."""
    for field in ("k", "n", "heuristic", "seed", "ops_budget"):
        if field not in spec:
            raise ValueError(f"ramsey spec missing {field!r}")
    if spec["heuristic"] not in HEURISTICS:
        raise ValueError(f"unknown heuristic {spec['heuristic']!r}")
    if int(spec["k"]) < int(spec["n"]):
        raise ValueError("spec has k < n")


def check_ramsey_result(spec: dict, result: Optional[dict]) -> None:
    """Distrust remote results (paper §3.1): a completion claiming a
    counter-example (``best_energy == 0``) must carry a coloring that an
    independent verifier confirms. Progress-only results make no claim
    and pass; a claim that cannot be re-verified is rejected, which
    requeues the unit for honest re-execution."""
    progress = result.get("progress") if isinstance(result, dict) else None
    if not isinstance(progress, dict):
        return
    claimed = progress.get("best_energy")
    try:
        if claimed is None or float(claimed) != 0.0:
            return
    except (TypeError, ValueError):
        raise ResultCheckError(f"unreadable best_energy {claimed!r}")
    from .graphs import Coloring
    from .verify import is_counter_example
    try:
        k = int(spec.get("k", progress.get("k")))
        n = int(spec.get("n", progress.get("n")))
        coloring = Coloring.from_hex(k, str(progress["best_coloring"]))
        ok = is_counter_example(coloring, n)
    except (KeyError, TypeError, ValueError) as exc:
        raise ResultCheckError(
            f"unverifiable counter-example claim: {exc}") from exc
    if not ok:
        raise ResultCheckError(
            "claimed counter-example fails independent verification")


def _ramsey_engine():
    from .client import RealEngine  # deferred: client imports this module
    return RealEngine()


register_kind(
    "ramsey",
    validate=validate_ramsey_spec,
    engine_factory=_ramsey_engine,
    check_result=check_ramsey_result,
    description="distributed Ramsey counter-example search (the paper's "
                "original application; the default for unlabelled units)",
    replace=True,
)


def unit_generator(
    k: int, n: int, base_seed: int = 0, ops_budget: float = 1e9
) -> Callable[[int], dict]:
    """Factory for :class:`~repro.core.services.scheduler.QueueWorkSource`:
    mints an endless stream of units cycling heuristics and seeds."""

    def generate(counter: int) -> dict:
        heuristic = HEURISTICS[counter % len(HEURISTICS)]
        return make_unit(
            uid=f"r{n}k{k}-{counter}",
            k=k,
            n=n,
            heuristic=heuristic,
            seed=base_seed + counter,
            ops_budget=ops_budget,
        )

    return generate


def run_unit(
    unit: dict,
    max_steps: int = 10_000,
    ops: Optional[OpCounter] = None,
) -> dict:
    """Execute a unit synchronously (offline/example use; clients in the
    simulation drive the engine incrementally instead).

    Returns ``{"unit_id", "best_energy", "found", "coloring", "steps", "ops"}``.
    """
    validate_unit(unit)
    ops = ops if ops is not None else OpCounter()
    rng = np.random.default_rng(unit["seed"])
    search = make_search(unit["heuristic"], unit["k"], unit["n"], rng, ops=ops)
    resume = unit.get("resume")
    if isinstance(resume, dict) and "coloring" in resume:
        try:
            search.restore(SearchSnapshot.from_dict(resume))
        except (KeyError, ValueError, TypeError):
            pass  # unusable resume info: start fresh
    steps = search.run(max_steps=max_steps)
    snap = search.snapshot()
    return {
        "unit_id": unit["id"],
        "best_energy": snap.best_energy,
        "found": snap.best_energy == 0,
        "coloring": snap.best_coloring,
        "steps": steps,
        "ops": ops.ops,
    }

"""The client-side ComputeEngine for ``explore.eval`` units.

Same protocol the Ramsey engines speak
(:class:`~repro.ramsey.client.ComputeEngine`): ``load`` a unit, burn
the host's delivered ops through ``advance`` until the unit's budget is
exhausted, then surface the finished evaluation. The objective itself is
cheap deterministic math (:func:`~repro.explore.evals.evaluate`); the
``ops_budget`` is what the evaluation *costs on the grid* — it meters
how long a client is occupied, which is what the scheduler, forecasters,
and chaos machinery care about. This module registers the kind, and the
default kind registry imports it on the first ``explore.*`` lookup, so
every process can both execute these units (via
:class:`~repro.core.services.kinds.KindEngine`) and distrust their
results (the gateway's WorkQueue check).
"""

from __future__ import annotations

from typing import Optional

from ..core.services.kinds import EngineStatus, register_kind
from .evals import EVAL_KIND, check_eval_result, execute_unit, validate_eval

__all__ = ["ExploreEngine"]


class ExploreEngine:
    """Meter ops against the unit budget; evaluate once at completion."""

    def __init__(self) -> None:
        self.unit: Optional[dict] = None
        self._ops = 0.0
        self._result: Optional[dict] = None
        self.units_done = 0

    def load(self, unit: dict, rng=None) -> None:
        validate_eval(unit)
        self.unit = unit
        self._ops = 0.0
        self._result = None

    def advance(self, ops_budget: float) -> EngineStatus:
        assert self.unit is not None
        burned = max(float(ops_budget), 0.0)
        self._ops += burned
        done = self._ops >= float(self.unit["ops_budget"])
        if done and self._result is None:
            self._result = execute_unit(self.unit)
            self.units_done += 1
        value = self._result["value"] if self._result is not None else 0.0
        return EngineStatus(ops_done=burned, energy=value,
                            best_energy=value, found=None, done=done)

    def progress(self) -> dict:
        out = {"kind": EVAL_KIND, "ops": self._ops}
        if self._result is not None:
            out["value"] = self._result["value"]
        return out

    def result(self) -> Optional[dict]:
        """The finished evaluation (what ``SCH_REPORT`` ships as the
        completion result), or None while the unit is still running."""
        return dict(self._result) if self._result is not None else None


register_kind(
    EVAL_KIND,
    validate=validate_eval,
    engine_factory=ExploreEngine,
    check_result=check_eval_result,
    description="model-exploration black-box evaluation (EMEWS-style)",
    replace=True,
)

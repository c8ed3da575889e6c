"""The ``explore.eval`` kind: a :class:`MeteredEngine` charges the unit's
``ops_budget`` (what the cheap evaluation *costs on the grid*), then
evaluates. The default kind registry imports this module on the first
``explore.*`` lookup, so every process can execute and distrust these
units."""

from __future__ import annotations

from functools import partial
from operator import itemgetter

from ..core.services.kinds import MeteredEngine, register_kind
from .evals import EVAL_KIND, check_eval_result, execute_unit, validate_eval

register_kind(
    EVAL_KIND,
    validate=validate_eval,
    engine_factory=partial(MeteredEngine, execute_unit,
                           itemgetter("ops_budget")),
    check_result=check_eval_result,
    description="model-exploration black-box evaluation (EMEWS-style)",
    replace=True,
)

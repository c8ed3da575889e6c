"""``repro.api.explore`` — the model-exploration plane.

The toolkit's second first-class application (ROADMAP item 4, DESIGN
§16): an EMEWS EQ/Py-style :class:`ExploreQueue` through which ME
algorithms (:class:`GridSweep`, :class:`HillClimber`) push black-box
evaluation tasks to the unchanged gateway/scheduler/WorkQueue stack and
consume results asynchronously. On the simulated twin the same driver
rides the same HTTP, as a :class:`~repro.explore.queue.FeedPump` on an
:class:`~repro.control.sim.HttpUser`; ``repro explore`` is a
:class:`~repro.control.scenario.Scenario` with an ``algo``.
"""

from __future__ import annotations

from .._exports import lazy_exports

_EXPORTS = {
    "..explore.drivers": ("GridSweep", "HillClimber", "make_driver",
                          "run_driver"),
    "..explore.evals": ("EVAL_FUNCTIONS", "EVAL_KIND", "check_eval_result",
                        "evaluate", "execute_unit", "make_eval_spec",
                        "validate_eval"),
    "..explore.queue": ("ExploreQueue",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

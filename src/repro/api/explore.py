"""``repro.api.explore`` — the model-exploration plane.

The toolkit's second first-class application (ROADMAP item 4, DESIGN
§16): an EMEWS EQ/Py-style :class:`ExploreQueue` through which ME
algorithms (:class:`GridSweep`, :class:`HillClimber`) push black-box
evaluation tasks to the unchanged gateway/scheduler/WorkQueue stack and
consume results asynchronously. :func:`run_explore` is the live
harness (``repro explore``); :func:`run_sim_explore` is its
byte-deterministic simulated twin.
"""

from __future__ import annotations

from .._exports import lazy_exports

_EXPORTS = {
    "..explore.drivers": ("GridSweep", "HillClimber", "make_driver",
                          "run_driver"),
    "..explore.engine": ("ExploreEngine",),
    "..explore.evals": ("EVAL_FUNCTIONS", "EVAL_KIND", "check_eval_result",
                        "evaluate", "execute_unit", "make_eval_spec",
                        "validate_eval"),
    "..explore.queue": ("ExploreQueue",),
    "..explore.serve": ("ExploreConfig", "run_explore"),
    "..explore.sim": ("ExploreWorker", "MEDriverComponent",
                      "run_sim_explore"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

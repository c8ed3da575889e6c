"""Model exploration: the toolkit's second first-class application.

EveryWare's generality claim, made executable (ROADMAP item 4, DESIGN
§16): an EMEWS EQ/Py-style model-exploration service where a search
algorithm pushes black-box evaluation tasks through a queue API
(:class:`ExploreQueue`: ``push_tasks`` / ``pop_results`` / ``done``) and
consumes results asynchronously — running entirely on the *unchanged*
scheduler/gateway/WorkQueue stack. The pieces:

* :mod:`~repro.explore.evals` — deterministic black-box objectives
  (sphere, rastrigin, a miniature forecast-skill model) and the §3.1
  recompute-and-distrust result check.
* :mod:`~repro.explore.engine` — the ``explore.eval`` kind: importing
  this module registers it, and the default kind registry imports it on
  the first ``explore.*`` lookup.
* :mod:`~repro.explore.drivers` — the ME algorithms (:class:`GridSweep`,
  :class:`HillClimber`) and the blocking EMEWS pump
  (:func:`run_driver`).
* :mod:`~repro.explore.queue` — the ME pump, one sans-IO conversation
  (:class:`~repro.explore.queue.FeedPump`): :class:`ExploreQueue` runs it
  over the HTTP gateway, the simulated twin carries it over the same
  HTTP.

``repro explore`` is a :class:`~repro.control.scenario.Scenario` with an
``algo``, run on the twin or as real processes.
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".drivers": ("GridSweep", "HillClimber", "make_driver", "run_driver"),
    ".evals": ("EVAL_FUNCTIONS", "EVAL_KIND", "check_eval_result", "evaluate",
               "execute_unit", "make_eval_spec", "validate_eval"),
    ".queue": ("ExploreQueue",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

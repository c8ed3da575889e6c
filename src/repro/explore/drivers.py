"""Model-exploration algorithms (the "ME" side of the EMEWS pattern).

A driver is a pull-based strategy object — the queue side asks it what
to push next and feeds it consumed results:

* ``initial_tasks()`` — the opening batch of evaluation specs;
* ``observe(spec, result)`` — one consumed result (any arrival order);
* ``next_tasks()`` — follow-up specs, ``[]`` until the driver has seen
  everything it is waiting on (this is where generation N+1 is minted
  from generation N's consumed results);
* ``finished()`` / ``best()`` / ``summary()``.

The same driver object runs everywhere: the blocking live pump
(:func:`run_driver` over an :class:`~repro.explore.queue.ExploreQueue`)
and the deterministic simulated twin (a sans-IO pump feeding it from
``/events`` pages over simulated HTTP). Determinism contract: a
driver's decisions depend only on its constructor arguments and the
*set* of results observed per round — never on arrival order or on any
ambient clock — so same-seed runs are byte-identical on both planes.

Two algorithms ship, deliberately spanning the two ME shapes:

* :class:`GridSweep` — the deterministic parameter sweep (Nimble's
  forecasting sweep): every task known up front, pushed as one batch.
* :class:`HillClimber` — random-restart hill climbing: generation g+1
  is centered on each restart's best-so-far point and is only minted
  once generation g is fully consumed.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

from .evals import make_eval_spec

__all__ = ["GridSweep", "HillClimber", "make_driver", "run_driver"]


def _tag_key(spec: dict) -> tuple:
    tag = spec.get("tag") or {}
    return (int(tag.get("restart", 0)), int(tag.get("gen", 0)),
            int(tag.get("cand", 0)))


class GridSweep:
    """Deterministic cartesian parameter sweep: all tasks up front."""

    #: Default grid for the forecast objective (5 x 4 x 3 = 60 points).
    DEFAULT_GRID = {
        "bias": [-0.5, -0.25, 0.0, 0.25, 0.5],
        "damping": [0.2, 0.4, 0.6, 0.8],
        "nudging": [0.1, 0.5, 0.9],
    }

    def __init__(self, fn: str = "forecast", grid: Optional[dict] = None,
                 seed: int = 0, ops_budget: float = 20_000.0) -> None:
        self.fn = fn
        self.grid = {k: list(v) for k, v in
                     sorted((grid or self.DEFAULT_GRID).items())}
        self.seed = int(seed)
        self.ops_budget = float(ops_budget)
        names = list(self.grid)
        self._tasks = [
            make_eval_spec(fn, dict(zip(names, point)), seed=self.seed,
                           ops_budget=self.ops_budget, tag={"cand": i})
            for i, point in enumerate(
                itertools.product(*(self.grid[n] for n in names)))
        ]
        self.expected = len(self._tasks)
        self.consumed = 0
        self.failed = 0
        self._best: Optional[dict] = None

    def initial_tasks(self) -> list[dict]:
        return [dict(spec) for spec in self._tasks]

    def observe(self, spec: dict, result: Optional[dict]) -> None:
        self.consumed += 1
        value = (result or {}).get("value")
        if value is None:
            self.failed += 1
            return
        # Tie-break on the candidate index so arrival order never matters.
        key = (float(value), _tag_key(spec))
        if self._best is None or key < self._best["_key"]:
            self._best = {"params": dict(spec["params"]),
                          "value": float(value), "_key": key}

    def next_tasks(self) -> list[dict]:
        return []

    def finished(self) -> bool:
        return self.consumed >= self.expected

    def best(self) -> Optional[dict]:
        if self._best is None:
            return None
        return {"params": self._best["params"], "value": self._best["value"]}

    def summary(self) -> dict:
        return {
            "algo": "sweep",
            "fn": self.fn,
            "evals": self.consumed,
            "expected": self.expected,
            "failed": self.failed,
            "best": self.best(),
        }


class HillClimber:
    """Random-restart hill climbing, strictly generational.

    ``restarts`` independent climbers each hold a current point. Every
    generation proposes ``population`` candidates per restart (uniform
    steps of width ``step`` around the current point, clipped to the
    space); once the *whole* generation is consumed, each restart moves
    to its best candidate if it improves, otherwise decays its step.
    That full-barrier fold is the iterative-ME shape the tentpole asks
    for: generation N+1 provably depends on generation N's results.
    """

    #: Default search box for the forecast objective.
    DEFAULT_SPACE = {
        "bias": (-1.0, 1.0),
        "damping": (0.0, 1.0),
        "nudging": (0.0, 1.0),
    }

    def __init__(self, fn: str = "forecast", space: Optional[dict] = None,
                 restarts: int = 2, population: int = 4,
                 generations: int = 5, step: float = 0.4,
                 decay: float = 0.6, seed: int = 0,
                 ops_budget: float = 20_000.0) -> None:
        self.fn = fn
        self.space = {k: (float(lo), float(hi)) for k, (lo, hi) in
                      sorted((space or self.DEFAULT_SPACE).items())}
        self.restarts = int(restarts)
        self.population = int(population)
        self.generations = int(generations)
        self.decay = float(decay)
        self.seed = int(seed)
        self.ops_budget = float(ops_budget)
        self.rng = random.Random(f"hill:{seed}")
        self.gen = 0
        self.consumed = 0
        self.failed = 0
        self.moves = 0
        #: Per-restart climber state.
        self._current: list[dict] = [
            {name: self.rng.uniform(lo, hi)
             for name, (lo, hi) in self.space.items()}
            for _ in range(self.restarts)]
        self._value: list[Optional[float]] = [None] * self.restarts
        self._step: list[float] = [float(step)] * self.restarts
        #: The in-flight generation: (restart, cand) -> observed value.
        self._wave: dict[tuple[int, int], Optional[float]] = {}
        self._wave_params: dict[tuple[int, int], dict] = {}
        self._expected = 0
        self._done = False

    # -- task minting --------------------------------------------------------
    def _spec(self, restart: int, cand: int, params: dict) -> dict:
        self._wave_params[(restart, cand)] = dict(params)
        return make_eval_spec(
            self.fn, params, seed=self.seed, ops_budget=self.ops_budget,
            tag={"restart": restart, "gen": self.gen, "cand": cand})

    def initial_tasks(self) -> list[dict]:
        # Generation 0 scores each restart's seed point itself.
        self._wave.clear()
        self._wave_params.clear()
        tasks = [self._spec(r, 0, self._current[r])
                 for r in range(self.restarts)]
        self._expected = len(tasks)
        return tasks

    def observe(self, spec: dict, result: Optional[dict]) -> None:
        tag = spec.get("tag") or {}
        key = (int(tag.get("restart", 0)), int(tag.get("cand", 0)))
        value = (result or {}).get("value")
        self.consumed += 1
        if value is None:
            self.failed += 1
        self._wave[key] = None if value is None else float(value)

    def next_tasks(self) -> list[dict]:
        if self._done or len(self._wave) < self._expected:
            return []
        self._fold()
        if self.gen > self.generations:
            self._done = True
            return []
        self._wave.clear()
        self._wave_params.clear()
        tasks = []
        for r in range(self.restarts):
            for c in range(self.population):
                point = {}
                for name, (lo, hi) in self.space.items():
                    jitter = self.rng.uniform(-self._step[r], self._step[r])
                    point[name] = min(hi, max(lo,
                                              self._current[r][name] + jitter))
                tasks.append(self._spec(r, c, point))
        self._expected = len(tasks)
        return tasks

    def _fold(self) -> None:
        """Consume the finished generation: per restart, move to the best
        candidate if it improves, else decay the step. Order-independent:
        candidates are compared by (value, cand index)."""
        for r in range(self.restarts):
            scored = sorted(
                (value, cand) for (restart, cand), value in self._wave.items()
                if restart == r and value is not None)
            if not scored:
                continue
            best_value, best_cand = scored[0]
            if self._value[r] is None or best_value < self._value[r]:
                self._value[r] = best_value
                self._current[r] = self._wave_params[(r, best_cand)]
                self.moves += 1
            else:
                self._step[r] *= self.decay
        self.gen += 1

    def finished(self) -> bool:
        return self._done

    def best(self) -> Optional[dict]:
        scored = sorted(
            (value, r) for r, value in enumerate(self._value)
            if value is not None)
        if not scored:
            return None
        value, r = scored[0]
        return {"params": {k: round(v, 9)
                           for k, v in sorted(self._current[r].items())},
                "value": value, "restart": r}

    def summary(self) -> dict:
        return {
            "algo": "hill",
            "fn": self.fn,
            "evals": self.consumed,
            "failed": self.failed,
            "generations": self.gen,
            "moves": self.moves,
            "best": self.best(),
        }


def make_driver(algo: str, seed: int = 0, fn: str = "forecast",
                ops_budget: float = 20_000.0, scale: float = 1.0):
    """Build a driver by name — the CLI/harness/CI entry point. ``scale``
    shrinks or grows the default workload (0.5 halves the sweep grid and
    the climber's generations) so smokes stay fast."""
    if algo == "sweep":
        grid = GridSweep.DEFAULT_GRID
        if scale != 1.0:
            grid = {name: values[:max(2, int(round(len(values) * scale)))]
                    for name, values in grid.items()}
        return GridSweep(fn=fn, grid=grid, seed=seed, ops_budget=ops_budget)
    if algo == "hill":
        return HillClimber(
            fn=fn, seed=seed, ops_budget=ops_budget,
            generations=max(2, int(round(5 * scale))),
            population=max(2, int(round(4 * scale))))
    raise ValueError(f"unknown ME algorithm {algo!r} "
                     "(expected 'sweep' or 'hill')")


def run_driver(driver, queue, timeout: float = 120.0,
               poll_timeout: float = 5.0, clock=None) -> dict:
    """The blocking EMEWS pump: push → pop → observe → next until the
    driver is finished. Returns the driver summary plus round-trip
    bookkeeping (``rounds`` are the wall offsets at which a follow-up
    batch was pushed — the iterative-ME round-trip measure).
    """
    if clock is None:
        import time
        clock = time.monotonic
    t0 = clock()
    rounds: list[float] = []
    timed_out = False
    queue.push_tasks(driver.initial_tasks())
    while not driver.finished():
        if clock() - t0 > timeout:
            timed_out = True
            break
        for res in queue.pop_results(min_results=1, timeout=poll_timeout):
            driver.observe(res["spec"], res.get("result"))
        follow_up = driver.next_tasks()
        if follow_up:
            rounds.append(round(clock() - t0, 6))
            queue.push_tasks(follow_up)
    summary = driver.summary()
    summary["elapsed"] = round(clock() - t0, 6)
    summary["rounds"] = rounds
    summary["timed_out"] = timed_out
    return summary

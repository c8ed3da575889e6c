"""Parallelized search heuristic (§6, delivered).

The paper's future work: "to search for R6, we will need to parallelize
some of the individual heuristics, each of which we will implement as a
computational client ... we will develop ways in which EveryWare can be
used to couple tightly synchronized parallel codes."

This module is that coupling: a **coordinator** runs the tabu search's
decision loop while farming the expensive part of each step — evaluating
the energy delta of many candidate edge flips — to a set of
**evaluators**, one round per move:

1. the coordinator sends every evaluator the current coloring and a
   disjoint slice of candidate edges (``PAR_EVAL``);
2. evaluators compute real, op-counted deltas and return their best
   (``PAR_BEST``);
3. the coordinator applies the globally best non-tabu move and starts
   the next round.

This is a barrier-synchronized parallel code, so it exposes exactly the
open question §2.3 raises: progress is gated by the *slowest* evaluator
each round. Round time-outs are forecast per evaluator (dynamic
benchmarking); stragglers and dead evaluators are tolerated by closing
the round with whatever arrived.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.component import CancelTimer, Component, Effect, LogLine, Send, SetTimer, Stop
from ..core.forecasting.benchmarking import ForecastRegistry, event_tag
from ..core.linguafranca.messages import Message
from ..parallel.kernels import EvalRound, run_task
from .graphs import Coloring, OpCounter, count_mono_cliques, count_mono_cliques_with_edge

__all__ = ["ParallelTabuCoordinator", "ParallelEvaluator", "PAR_EVAL", "PAR_BEST"]

PAR_EVAL = "PAR_EVAL"
PAR_BEST = "PAR_BEST"

T_ROUND = "par:round"


class ParallelEvaluator(Component):
    """Evaluates candidate edge flips on the current coloring.

    Each evaluation round is one :class:`repro.parallel.EvalRound`
    kernel task: run inline through the reference kernel, or with a
    ``lane`` (a :class:`repro.parallel.KernelPool`) waited for inside the
    handler (``lane.run``). The reply carries the same bytes either way:
    kernels are bit-identical and op-metered.
    """

    def __init__(self, name: str, lane=None) -> None:
        super().__init__(name)
        self.ops = OpCounter()
        self.rounds_served = 0
        self.lane = lane

    def on_message(self, message: Message, now: float) -> list[Effect]:
        if message.mtype != PAR_EVAL:
            return []
        body = message.body
        try:
            k = int(body["k"])
            n = int(body["n"])
            coloring = Coloring.from_hex(k, body["coloring"])
            edges = [(int(u), int(v)) for u, v in body["edges"]]
        except (KeyError, TypeError, ValueError):
            return []
        self.rounds_served += 1
        task = EvalRound(k, n, coloring.red, edges)
        outcome = run_task(task) if self.lane is None else self.lane.run(task)
        self.ops.add(outcome.ops)
        reply_body = {
            "round": body.get("round"),
            "edge": list(outcome.best_move) if outcome.best_move else None,
            "delta": outcome.best_delta,
            "ops": self.ops.reset(),
        }
        return [Send(message.sender, Message(
            mtype=PAR_BEST, sender=self.contact, body=reply_body))]


class ParallelTabuCoordinator(Component):
    """Distributed steepest-descent tabu over edge flips."""

    def __init__(
        self,
        name: str,
        k: int,
        n: int,
        evaluators: list[str],
        candidates_per_eval: int = 12,
        tenure: int = 32,
        seed: int = 0,
        max_rounds: Optional[int] = None,
        default_timeout: float = 15.0,
    ) -> None:
        super().__init__(name)
        if not evaluators:
            raise ValueError("need at least one evaluator")
        self.k = k
        self.n = n
        self.evaluators = list(evaluators)
        self.candidates_per_eval = candidates_per_eval
        self.tenure = tenure
        self.max_rounds = max_rounds
        self.default_timeout = default_timeout
        self._rng = np.random.default_rng(seed)
        self.ops = OpCounter()
        self.coloring = Coloring.random(k, self._rng)
        self.energy = count_mono_cliques(self.coloring, n, self.ops)
        self.best_energy = self.energy
        self.best_coloring = self.coloring.copy()
        self._tabu: dict[tuple[int, int], int] = {}
        self.round = 0
        self._responses: dict[str, dict] = {}
        self.rounds_closed = 0
        self.straggler_rounds = 0
        self.moves_applied = 0
        self.remote_ops = 0
        self.forecasts = ForecastRegistry()
        #: When the current round's PAR_EVALs left, and the evaluators
        #: sent one whose PAR_BEST has not been timed yet.
        self._round_started = 0.0
        self._awaiting: set[str] = set()
        self.stopped = False
        #: Simulation time at which the search stopped (found or budget).
        self.finished_at: Optional[float] = None

    @property
    def found(self) -> bool:
        return self.best_energy == 0

    # -- rounds ------------------------------------------------------------
    def on_start(self, now: float) -> list[Effect]:
        return self._start_round(now)

    def _random_edges(self, count: int) -> list[tuple[int, int]]:
        edges = set()
        attempts = 0
        while len(edges) < count and attempts < count * 10:
            attempts += 1
            u = int(self._rng.integers(self.k))
            v = int(self._rng.integers(self.k - 1))
            if v >= u:
                v += 1
            edges.add((min(u, v), max(u, v)))
        return sorted(edges)

    def _round_timeout(self) -> float:
        """Barrier time-out: the slowest evaluator's forecast response."""
        timeouts = [
            self.forecasts.timeout(
                event_tag(ev, PAR_EVAL), multiplier=4.0,
                default=self.default_timeout, floor=0.5, ceiling=120.0)
            for ev in self.evaluators
        ]
        return max(timeouts)

    def _start_round(self, now: float) -> list[Effect]:
        self.round += 1
        self._responses = {}
        self._round_started = now
        self._awaiting = set()
        hexstr = self.coloring.to_hex()
        all_edges = self._random_edges(
            self.candidates_per_eval * len(self.evaluators))
        effects: list[Effect] = []
        per = max(len(all_edges) // len(self.evaluators), 1)
        for i, evaluator in enumerate(self.evaluators):
            chunk = all_edges[i * per : (i + 1) * per]
            if not chunk:
                continue
            self._awaiting.add(evaluator)
            effects.append(Send(evaluator, Message(
                mtype=PAR_EVAL, sender=self.contact, body={
                    "round": self.round,
                    "k": self.k,
                    "n": self.n,
                    "coloring": hexstr,
                    "edges": [list(e) for e in chunk],
                })))
        effects.append(SetTimer(T_ROUND, self._round_timeout()))
        return effects

    def on_message(self, message: Message, now: float) -> list[Effect]:
        if message.mtype != PAR_BEST or self.stopped:
            return []
        if message.body.get("round") != self.round:
            return []  # straggler from a closed round
        evaluator = message.sender
        if evaluator in self._awaiting:  # each answer is timed once
            self._awaiting.discard(evaluator)
            self.forecasts.record(event_tag(evaluator, PAR_EVAL),
                                  now - self._round_started)
        self._responses[evaluator] = message.body
        self.remote_ops += int(message.body.get("ops", 0))
        if len(self._responses) == len(self.evaluators):
            return [CancelTimer(T_ROUND), *self._close_round(now)]
        return []

    def on_timer(self, key: str, now: float) -> list[Effect]:
        if key != T_ROUND or self.stopped:
            return []
        if len(self._responses) < len(self.evaluators):
            self.straggler_rounds += 1
        return self._close_round(now)

    def _close_round(self, now: float) -> list[Effect]:
        self.rounds_closed += 1
        best_edge: Optional[tuple[int, int]] = None
        best_delta = 0
        for body in self._responses.values():
            edge = body.get("edge")
            if edge is None:
                continue
            u, v = int(edge[0]), int(edge[1])
            tabu_until = self._tabu.get((u, v), -1)
            delta = int(body.get("delta", 0))
            aspiration = self.energy + delta < self.best_energy
            if tabu_until >= self.round and not aspiration:
                continue
            if best_edge is None or delta < best_delta:
                best_edge, best_delta = (u, v), delta
        if best_edge is not None:
            u, v = best_edge
            # Verify the remote delta locally before applying: evaluators
            # are untrusted guests on shared machines (the persistent-state
            # sanity-check principle applied to moves).
            before = count_mono_cliques_with_edge(self.coloring, u, v, self.n, self.ops)
            self.coloring.flip(u, v)
            after = count_mono_cliques_with_edge(self.coloring, u, v, self.n, self.ops)
            self.energy += after - before
            self._tabu[best_edge] = self.round + self.tenure
            self.moves_applied += 1
            if self.energy < self.best_energy:
                self.best_energy = self.energy
                self.best_coloring = self.coloring.copy()
        effects: list[Effect] = []
        if self.found:
            self.stopped = True
            self.finished_at = now
            effects.append(LogLine(
                f"parallel search found a counter-example in "
                f"{self.rounds_closed} rounds"))
            effects.append(Stop("found"))
            return effects
        if self.max_rounds is not None and self.rounds_closed >= self.max_rounds:
            self.stopped = True
            self.finished_at = now
            effects.append(Stop("budget"))
            return effects
        effects.extend(self._start_round(now))
        return effects

"""Counter-example search heuristics (§3).

"We must use heuristic techniques to control the search process", since
exhaustive enumeration of the 2^903 colorings of K_43 is infeasible. The
application's heuristics perform local search in the space of colorings,
minimizing the *energy* — the number of monochromatic K_n — until it
reaches zero (a counter-example).

Three heuristics are provided, all incremental (one-edge-flip moves whose
energy delta is computed from the flipped edge's neighborhood only) and
all *sliceable*: clients call :meth:`step` in bounded batches so that
computation interleaves with EveryWare messaging, exactly as the paper's
clients interleaved work with scheduler/Gossip traffic.

* :class:`TabuSearch` — steepest-descent over a sampled candidate set
  with a tabu list and aspiration, plus random-restart on stall.
* :class:`Annealing` — Metropolis accept/reject with geometric cooling
  and reheat on stall.
* :class:`MinConflicts` — violation-directed repair: locate one
  monochromatic clique and flip its best edge (noisy greedy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import (
    RED,
    Coloring,
    OpCounter,
    _count_cliques_with_edge_in,
    count_mono_cliques,
    find_any_mono_clique,
)

__all__ = ["TabuSearch", "Annealing", "MinConflicts", "SearchSnapshot",
           "make_search"]


def _coloring_from_red(k: int, red: list[int]) -> Coloring:
    """Rebuild a Coloring from trusted red masks without the O(k^2)
    symmetry revalidation (state transfer moves live, known-good masks)."""
    c = Coloring.__new__(Coloring)
    c.k = k
    c.red = [int(m) for m in red]
    full = (1 << k) - 1
    c.blue = [full & ~c.red[v] & ~(1 << v) for v in range(k)]
    return c


@dataclass
class SearchSnapshot:
    """Serializable search progress (work-unit migration / checkpointing)."""

    k: int
    n: int
    coloring: str  # hex
    energy: int
    best_coloring: str
    best_energy: int
    steps: int

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "coloring": self.coloring,
            "energy": self.energy,
            "best_coloring": self.best_coloring,
            "best_energy": self.best_energy,
            "steps": self.steps,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SearchSnapshot":
        return cls(
            k=int(d["k"]),
            n=int(d["n"]),
            coloring=str(d["coloring"]),
            energy=int(d["energy"]),
            best_coloring=str(d["best_coloring"]),
            best_energy=int(d["best_energy"]),
            steps=int(d["steps"]),
        )


class _EdgeFlipSearch:
    """Shared machinery: incremental energy accounting over edge flips."""

    def __init__(
        self,
        k: int,
        n: int,
        rng: np.random.Generator,
        ops: Optional[OpCounter] = None,
        coloring: Optional[Coloring] = None,
    ) -> None:
        if n < 3:
            raise ValueError("Ramsey search needs n >= 3")
        if k < n:
            raise ValueError("k must be at least n")
        self.k = k
        self.n = n
        self.rng = rng
        self.ops = ops if ops is not None else OpCounter()
        self.coloring = coloring.copy() if coloring is not None else Coloring.random(k, rng)
        self.energy = count_mono_cliques(self.coloring, n, self.ops)
        self.best_energy = self.energy
        self.best_coloring = self.coloring.copy()
        self.steps = 0
        self.restarts = 0

    @property
    def found(self) -> bool:
        """True once a counter-example has been seen."""
        return self.best_energy == 0

    def _random_edge(self) -> tuple[int, int]:
        u = int(self.rng.integers(self.k))
        v = int(self.rng.integers(self.k - 1))
        if v >= u:
            v += 1
        return (u, v) if u < v else (v, u)

    def _flip_delta(self, u: int, v: int) -> int:
        """Energy change if edge (u, v) were flipped.

        Flipping (u, v) only changes bit v of the u-row masks and bit u of
        the v-row masks, and neither bit can appear in the common
        neighborhood ``masks[u] & masks[v]`` — so the clique count through
        the flipped edge equals the count through (u, v) in the
        *opposite*-color masks of the current state. Both counts (and
        their op metering) are therefore taken without mutating the
        coloring, where the original implementation flipped the edge
        twice and paid two full mask-row updates per probed candidate.
        """
        c = self.coloring
        if c.color(u, v) == RED:
            same, other = c.red, c.blue
        else:
            same, other = c.blue, c.red
        before = _count_cliques_with_edge_in(same, c.k, u, v, self.n, self.ops)
        after = _count_cliques_with_edge_in(other, c.k, u, v, self.n, self.ops)
        return after - before

    def _apply_flip(self, u: int, v: int, delta: int) -> None:
        self.coloring.flip(u, v)
        self.energy += delta
        if self.energy < self.best_energy:
            self.best_energy = self.energy
            self.best_coloring = self.coloring.copy()

    def _perturb(self, fraction: float = 0.1) -> None:
        """Random restart: kick a fraction of edges from the best state."""
        self.restarts += 1
        self.coloring = self.best_coloring.copy()
        n_edges = self.k * (self.k - 1) // 2
        kicks = max(1, int(fraction * n_edges))
        for _ in range(kicks):
            u, v = self._random_edge()
            self.coloring.flip(u, v)
        self.energy = count_mono_cliques(self.coloring, self.n, self.ops)
        if self.energy < self.best_energy:
            self.best_energy = self.energy
            self.best_coloring = self.coloring.copy()

    # -- batching & checkpointing ------------------------------------------
    def step(self) -> None:
        raise NotImplementedError

    def run(self, max_steps: int, target: int = 0) -> int:
        """Step until energy <= target or the budget runs out; returns the
        number of steps taken."""
        taken = 0
        while taken < max_steps and self.best_energy > target:
            self.step()
            taken += 1
        return taken

    def snapshot(self) -> SearchSnapshot:
        return SearchSnapshot(
            k=self.k,
            n=self.n,
            coloring=self.coloring.to_hex(),
            energy=self.energy,
            best_coloring=self.best_coloring.to_hex(),
            best_energy=self.best_energy,
            steps=self.steps,
        )

    def restore(self, snap: SearchSnapshot) -> None:
        """Resume from a snapshot (e.g. a migrated work unit)."""
        if (snap.k, snap.n) != (self.k, self.n):
            raise ValueError("snapshot is for a different problem size")
        self.coloring = Coloring.from_hex(snap.k, snap.coloring)
        self.best_coloring = Coloring.from_hex(snap.k, snap.best_coloring)
        # Recount rather than trust the snapshot: snapshots cross the wire.
        self.energy = count_mono_cliques(self.coloring, self.n, self.ops)
        self.best_energy = count_mono_cliques(self.best_coloring, self.n, self.ops)
        self.steps = snap.steps


class TabuSearch(_EdgeFlipSearch):
    """Sampled steepest descent with a tabu list and aspiration."""

    def __init__(
        self,
        k: int,
        n: int,
        rng: np.random.Generator,
        ops: Optional[OpCounter] = None,
        coloring: Optional[Coloring] = None,
        candidates: int = 24,
        tenure: int = 32,
        stall_limit: int = 400,
    ) -> None:
        super().__init__(k, n, rng, ops, coloring)
        self.candidates = candidates
        self.tenure = tenure
        self.stall_limit = stall_limit
        self._tabu: dict[tuple[int, int], int] = {}
        self._stall = 0

    def step(self) -> None:
        self.steps += 1
        best_move: Optional[tuple[int, int]] = None
        best_delta = 0
        seen: set[tuple[int, int]] = set()
        for _ in range(self.candidates):
            edge = self._random_edge()
            if edge in seen:
                continue
            seen.add(edge)
            delta = self._flip_delta(*edge)
            tabu_until = self._tabu.get(edge, -1)
            aspiration = self.energy + delta < self.best_energy
            if tabu_until >= self.steps and not aspiration:
                continue
            if best_move is None or delta < best_delta:
                best_move, best_delta = edge, delta
        if best_move is None:
            self._stall += 1
        else:
            self._apply_flip(*best_move, best_delta)
            self._tabu[best_move] = self.steps + self.tenure
            self._stall = 0 if best_delta < 0 else self._stall + 1
        if self._stall >= self.stall_limit:
            self._perturb()
            self._tabu.clear()
            self._stall = 0

    # -- round decomposition (compute-plane offload) -----------------------
    #
    # ``step()`` above is the reference implementation and stays the inline
    # path. ``prepare_round()`` + ``apply_round()`` split one step at the
    # kernel boundary so the candidate evaluation — the expensive middle —
    # can run on :class:`repro.parallel.KernelPool`. The split is
    # bit-exact: the RNG draws do not depend on any evaluation result, so
    # drawing every candidate up front replays the same stream, and the
    # tabu/aspiration filter is captured as per-candidate flags plus the
    # aspiration margin and re-applied in draw order.

    def prepare_round(self) -> dict:
        """Advance to the next step and describe its evaluation round.

        Returns a kernel-ready round description; the caller evaluates it
        (inline or on a pool worker) and feeds the outcome to
        :meth:`apply_round`. Interleaving ``prepare_round``/``apply_round``
        with plain :meth:`step` calls is safe — state advances identically.
        """
        self.steps += 1
        edges: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for _ in range(self.candidates):
            edge = self._random_edge()
            if edge in seen:
                continue
            seen.add(edge)
            edges.append(edge)
        return {
            "k": self.k,
            "n": self.n,
            "red": self.coloring.red,
            "edges": edges,
            "tabu": [self._tabu.get(e, -1) >= self.steps for e in edges],
            "aspiration_below": self.best_energy - self.energy,
        }

    def apply_round(
        self,
        best_move: Optional[tuple[int, int]],
        best_delta: int,
        ops_done: int = 0,
    ) -> None:
        """Apply the outcome of an evaluation round prepared by
        :meth:`prepare_round` (the back half of :meth:`step`)."""
        if ops_done:
            self.ops.add(ops_done)
        if best_move is None:
            self._stall += 1
        else:
            best_move = (int(best_move[0]), int(best_move[1]))
            self._apply_flip(*best_move, best_delta)
            self._tabu[best_move] = self.steps + self.tenure
            self._stall = 0 if best_delta < 0 else self._stall + 1
        if self._stall >= self.stall_limit:
            self._perturb()
            self._tabu.clear()
            self._stall = 0

    # -- exact state transfer (worker-resident step batches) ---------------
    def export_state(self) -> dict:
        """Full-fidelity state for migrating the search to another process.

        Unlike :class:`SearchSnapshot` (a wire checkpoint whose restore
        re-counts energies, charging extra ops), this captures *everything*
        — tabu list, stall counter, RNG stream position — so a search can
        hop processes and continue bit-identically to never having moved.
        The op counter is deliberately excluded: the host process owns it
        and accounts returned ``ops_done`` itself.
        """
        return {
            "k": self.k,
            "n": self.n,
            "candidates": self.candidates,
            "tenure": self.tenure,
            "stall_limit": self.stall_limit,
            "red": list(self.coloring.red),
            "best_red": list(self.best_coloring.red),
            "energy": self.energy,
            "best_energy": self.best_energy,
            "steps": self.steps,
            "restarts": self.restarts,
            "tabu": list(self._tabu.items()),
            "stall": self._stall,
            "rng_state": self.rng.bit_generator.state,
        }

    @classmethod
    def from_state(
        cls, state: dict, ops: Optional[OpCounter] = None
    ) -> "TabuSearch":
        """Reconstruct a search exported by :meth:`export_state`."""
        rng = np.random.default_rng()
        rng.bit_generator.state = state["rng_state"]
        search = cls.__new__(cls)
        search.k = int(state["k"])
        search.n = int(state["n"])
        search.rng = rng
        search.ops = ops if ops is not None else OpCounter()
        search.coloring = _coloring_from_red(search.k, state["red"])
        search.best_coloring = _coloring_from_red(search.k, state["best_red"])
        search.energy = int(state["energy"])
        search.best_energy = int(state["best_energy"])
        search.steps = int(state["steps"])
        search.restarts = int(state["restarts"])
        search.candidates = int(state["candidates"])
        search.tenure = int(state["tenure"])
        search.stall_limit = int(state["stall_limit"])
        search._tabu = {(int(u), int(v)): int(t)
                        for (u, v), t in state["tabu"]}
        search._stall = int(state["stall"])
        return search


class Annealing(_EdgeFlipSearch):
    """Metropolis single-flip annealing with geometric cooling."""

    def __init__(
        self,
        k: int,
        n: int,
        rng: np.random.Generator,
        ops: Optional[OpCounter] = None,
        coloring: Optional[Coloring] = None,
        t_start: float = 2.0,
        t_min: float = 0.02,
        cooling: float = 0.9995,
        stall_limit: int = 4000,
    ) -> None:
        super().__init__(k, n, rng, ops, coloring)
        self.temperature = t_start
        self.t_start = t_start
        self.t_min = t_min
        self.cooling = cooling
        self.stall_limit = stall_limit
        self._stall = 0

    def step(self) -> None:
        self.steps += 1
        u, v = self._random_edge()
        delta = self._flip_delta(u, v)
        accept = delta <= 0
        if not accept and self.temperature > 0:
            accept = self.rng.random() < math.exp(-delta / self.temperature)
        if accept:
            improved = self.energy + delta < self.best_energy
            self._apply_flip(u, v, delta)
            self._stall = 0 if improved else self._stall + 1
        else:
            self._stall += 1
        self.temperature = max(self.temperature * self.cooling, self.t_min)
        if self._stall >= self.stall_limit:
            # Reheat and kick: annealing's restart analog.
            self.temperature = self.t_start
            self._perturb()
            self._stall = 0


class MinConflicts(_EdgeFlipSearch):
    """Violation-directed repair: find one monochromatic clique, flip the
    best edge inside it.

    A different execution profile from the sampled-neighborhood methods
    (§4: "each heuristic has an execution profile that depends largely on
    the point in the search space"): near a solution, locating the few
    remaining violations dominates; far from one, repairs are cheap. With
    probability ``noise`` a random clique edge is flipped instead of the
    greedy best — the standard min-conflicts escape from plateaus.
    """

    def __init__(
        self,
        k: int,
        n: int,
        rng: np.random.Generator,
        ops: Optional[OpCounter] = None,
        coloring: Optional[Coloring] = None,
        noise: float = 0.15,
        stall_limit: int = 300,
    ) -> None:
        super().__init__(k, n, rng, ops, coloring)
        self.noise = noise
        self.stall_limit = stall_limit
        self._stall = 0

    def step(self) -> None:
        self.steps += 1
        if self.energy == 0:
            return  # already a counter-example
        start = int(self.rng.integers(self.k))
        clique = find_any_mono_clique(self.coloring, self.n, self.ops,
                                      start=start)
        if clique is None:
            # Tracked energy says violations exist but none found: recount
            # defensively (should not happen; counts are exact).
            self.energy = count_mono_cliques(self.coloring, self.n, self.ops)
            return
        edges = [(clique[i], clique[j])
                 for i in range(len(clique))
                 for j in range(i + 1, len(clique))]
        if self.rng.random() < self.noise:
            u, v = edges[int(self.rng.integers(len(edges)))]
            delta = self._flip_delta(u, v)
        else:
            u, v = edges[0]
            delta = None
            for a, b in edges:
                d = self._flip_delta(a, b)
                if delta is None or d < delta:
                    (u, v), delta = (a, b), d
            assert delta is not None
        prev_best = self.best_energy
        self._apply_flip(u, v, delta)
        self._stall = 0 if self.best_energy < prev_best else self._stall + 1
        if self._stall >= self.stall_limit:
            self._perturb()
            self._stall = 0


def make_search(
    heuristic: str,
    k: int,
    n: int,
    rng: np.random.Generator,
    ops: Optional[OpCounter] = None,
    coloring: Optional[Coloring] = None,
) -> _EdgeFlipSearch:
    """Factory used by work units: 'tabu', 'anneal', or 'minconflict'."""
    if heuristic == "tabu":
        return TabuSearch(k, n, rng, ops=ops, coloring=coloring)
    if heuristic == "anneal":
        return Annealing(k, n, rng, ops=ops, coloring=coloring)
    if heuristic == "minconflict":
        return MinConflicts(k, n, rng, ops=ops, coloring=coloring)
    raise ValueError(f"unknown heuristic {heuristic!r}")

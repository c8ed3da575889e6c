"""NOW G-Net–style distributed data mining on EveryWare (§6, delivered).

The paper's second planned application is "a data mining application
called NOW G-Net". This module implements the canonical distributed
mining kernel — frequent itemset counting over a partitioned transaction
database — as the ``gnet.*`` app kind:

* the synthetic market-basket database is *not* shipped: each job
  carries only a (seed, offset, count) triple, and clients regenerate
  their partition deterministically (the data-parallel idiom the paper
  highlights for Grid-suitable applications);
* clients count item and item-pair supports in their partition;
* :class:`CountMerger` folds the completed jobs' counts in submit order;
  frequent itemsets are the ones clearing the support threshold —
  identical, by construction, to a serial pass over the whole database.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from ..core.services.kinds import MeteredEngine, ResultCheckError, register_kind

__all__ = [
    "generate_transactions",
    "count_supports",
    "mine_serial",
    "make_tasks",
    "execute_task",
    "task_cost",
    "CountMerger",
    "frequent_itemsets",
]

GNET_KIND = "gnet.count"  # stamped on every job; registered as gnet.*

#: Item pairs planted with high joint support in the synthetic data.
PLANTED_PAIRS = [(1, 2), (5, 9)]

#: Per-job bounds, as the §3.1 recount runs on the gateway's event loop
#: (the example's and tests' jobs are at most 3,000 x 24 items).
MAX_COUNT, MAX_ITEMS = 10_000, 1_024


def generate_transactions(
    n: int, n_items: int = 24, seed: int = 0, offset: int = 0
) -> list[list[int]]:
    """Synthetic market baskets, reproducible per (seed, offset).

    Baseline random items plus planted correlated pairs so the mining
    result has structure to find.
    """
    out = []
    for row in range(offset, offset + n):
        rng = np.random.default_rng((seed, row))
        basket = set(rng.choice(n_items, size=rng.integers(2, 7),
                                replace=False).tolist())
        for a, b in PLANTED_PAIRS:
            if rng.random() < 0.35:
                basket.update((a, b))
        out.append(sorted(int(i) for i in basket))
    return out


def count_supports(transactions: Iterable[list[int]], n_items: int) -> tuple[dict, dict]:
    """(single counts, pair counts) over the given transactions."""
    singles: dict[int, int] = {}
    pairs: dict[tuple[int, int], int] = {}
    for basket in transactions:
        for i, a in enumerate(basket):
            singles[a] = singles.get(a, 0) + 1
            for b in basket[i + 1 :]:
                key = (a, b)
                pairs[key] = pairs.get(key, 0) + 1
    return singles, pairs


def frequent_itemsets(
    singles: dict, pairs: dict, n_transactions: int, min_support: float
) -> tuple[list[int], list[tuple[int, int]]]:
    """Items and pairs clearing the relative support threshold."""
    cut = min_support * n_transactions
    freq_items = sorted(i for i, c in singles.items() if c >= cut)
    freq_pairs = sorted(p for p, c in pairs.items() if c >= cut)
    return freq_items, freq_pairs


def mine_serial(n_transactions: int, n_items: int, seed: int,
                min_support: float) -> tuple[list[int], list[tuple[int, int]]]:
    """Single-machine reference pass."""
    singles, pairs = count_supports(
        generate_transactions(n_transactions, n_items, seed), n_items)
    return frequent_itemsets(singles, pairs, n_transactions, min_support)


# -- the gnet.* kind --------------------------------------------------------


def make_tasks(n_transactions: int, n_items: int, seed: int,
               chunk: int = 500) -> list[dict]:
    """One job spec per partition of the database."""
    tasks = []
    for offset in range(0, n_transactions, chunk):
        tasks.append({
            "kind": GNET_KIND,
            "seed": seed,
            "offset": offset,
            "count": min(chunk, n_transactions - offset),
            "n_items": n_items,
        })
    return tasks


def validate_task(task: dict) -> None:
    """Raise ValueError for a spec no client can count."""
    try:
        seed, offset, count, n_items = (int(task[key]) for key in (
            "seed", "offset", "count", "n_items"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad gnet task: {exc!r}") from exc
    if min(offset, count) < 0 or n_items < 6:  # 6: the largest basket
        raise ValueError("gnet task needs offset, count >= 0, n_items >= 6")
    if count > MAX_COUNT or n_items > MAX_ITEMS:
        raise ValueError(f"gnet task over the per-job bounds "
                         f"(count <= {MAX_COUNT}, n_items <= {MAX_ITEMS})")


def execute_task(task: dict) -> dict:
    """Count supports in this partition (what a client's engine runs)."""
    transactions = generate_transactions(
        int(task["count"]), int(task["n_items"]),
        int(task["seed"]), int(task["offset"]))
    singles, pairs = count_supports(transactions, int(task["n_items"]))
    return {
        "singles": {str(k): v for k, v in singles.items()},
        "pairs": {f"{a},{b}": v for (a, b), v in pairs.items()},
        "n": int(task["count"]),
    }


def task_cost(task: dict) -> float:
    """Roughly items^2 tests per transaction."""
    return 40.0 * float(task["count"])


def check_task_result(task: dict, result: Optional[dict]) -> None:
    """§3.1: recount the partition and distrust counts that differ. A
    spec no client can count is never recounted: its one honest result
    is the client's refusal (DESIGN §13)."""
    try:
        validate_task(task)
    except ValueError:
        if isinstance(result, dict) and "error" in result:
            return
        raise ResultCheckError("counts for a spec no client can count")
    if result != execute_task(task):
        raise ResultCheckError("partition counts differ from a recount")


register_kind(
    "gnet.*",
    validate=validate_task,
    engine_factory=functools.partial(MeteredEngine, execute_task, task_cost),
    check_result=check_task_result,
    description="NOW G-Net itemset counting, one partition per job",
    replace=True,
)


@dataclass
class CountMerger:
    """Merge the counts of completed jobs, folded in submit order."""

    singles: dict = field(default_factory=dict)
    pairs: dict = field(default_factory=dict)
    n_transactions: int = 0

    def fold(self, results: Iterable[dict]) -> "CountMerger":
        for result in results:
            for key, value in result["singles"].items():
                item = int(key)
                self.singles[item] = self.singles.get(item, 0) + value
            for key, value in result["pairs"].items():
                a, b = key.split(",")
                pair = (int(a), int(b))
                self.pairs[pair] = self.pairs.get(pair, 0) + value
            self.n_transactions += int(result["n"])
        return self

    def mine(self, min_support: float) -> tuple[list[int], list[tuple[int, int]]]:
        return frequent_itemsets(self.singles, self.pairs,
                                 self.n_transactions, min_support)

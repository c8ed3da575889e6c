#!/usr/bin/env python
"""NOW G-Net-style distributed data mining on EveryWare (§6).

The paper's second planned application. A synthetic market-basket
database (with planted correlated item pairs) is mined for frequent
itemsets; the database never moves — each job carries only a
(seed, offset, count) triple and workers regenerate their partition
deterministically. The partitions are ``gnet.*`` jobs submitted as one
batch to the gateway of a small simulated Grid, and a client is killed
mid-unit; the merged result is checked against a serial pass.

Run: ``python examples/gnet_mining.py``
"""

from repro.apps.gnet import PLANTED_PAIRS, CountMerger, make_tasks, mine_serial
from repro.api import Scenario, run_scenario

N_TX = 4000
N_ITEMS = 24
SEED = 11
MIN_SUPPORT = 0.25


def main() -> None:
    tasks = make_tasks(N_TX, N_ITEMS, SEED, chunk=400)
    print(f"mining {N_TX:,} transactions ({N_ITEMS} items) across "
          f"{len(tasks)} partitions on 4 clients; the data ships as seeds, "
          "not rows ...")
    report = run_scenario(Scenario(specs=tasks, clients=4, victim="client",
                                   fault_at=0.2))
    assert not report["violations"], report["violations"]
    merger = CountMerger().fold(report["results"])

    items, pairs = merger.mine(MIN_SUPPORT)
    print(f"\nbatch finished in {report['world']['seconds']:.0f} simulated "
          f"seconds (units requeued: "
          f"{report['gateway']['scheduler']['units_requeued']})")
    print(f"frequent items (support >= {MIN_SUPPORT:.0%}): {items}")
    print(f"frequent pairs: {pairs}")
    for pair in PLANTED_PAIRS:
        tag = "found" if pair in pairs else "MISSED"
        support = merger.pairs.get(pair, 0) / merger.n_transactions
        print(f"  planted pair {pair}: {tag} (support {support:.1%})")

    serial = mine_serial(N_TX, N_ITEMS, SEED, MIN_SUPPORT)
    print(f"\ndistributed result equals the serial pass: "
          f"{(items, pairs) == serial}")


if __name__ == "__main__":
    main()

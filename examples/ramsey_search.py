#!/usr/bin/env python
"""A miniature Grid running the real Ramsey application end to end.

Builds the paper's Figure-1 topology — scheduler, Gossip, persistent
state manager (with counter-example verification), logging server — on a
simulated grid of heterogeneous hosts, and runs *real* op-counted search
kernels in the clients. The run searches K_14 for R(4,4) counter-examples
(abundant below R(4,4)=18, so the mini-grid actually finds some), shows
work distribution, gossip spread of the best result, and the verified
persistent checkpoint.

Run: ``python examples/ramsey_search.py``
"""

import numpy as np

from repro.api import (
    RAMSEY_BEST,
    Coloring,
    ComparatorRegistry,
    ConstantLoad,
    GossipServer,
    LoggingServer,
    MeanRevertingLoad,
    PersistentStateServer,
    QueueWorkSource,
    RamseyClient,
    RealEngine,
    SchedulerServer,
    SimWorld,
    counter_example_validator,
    is_counter_example,
    ramsey_comparator,
    unit_generator,
)

K, N = 14, 4  # search K_14 for mono-K_4-free colorings (harder, still < R(4,4)=18)
N_CLIENTS = 4


def main() -> None:
    world = SimWorld(seed=1998, jitter=0.1)
    env = world.env

    def host(name, speed=2e6, load=None):
        h = world.host(name, speed=speed, load_model=load or ConstantLoad(1.0))
        h.start()
        return h

    comparators = ComparatorRegistry()
    comparators.register(RAMSEY_BEST, ramsey_comparator)
    gossip = GossipServer("gossip", ["gossip/gossip"], comparators=comparators,
                          poll_period=10, sync_period=15)
    world.spawn(host("gossip"), "gossip", gossip)

    work = QueueWorkSource(generator=unit_generator(K, N, base_seed=42,
                                                    ops_budget=2e9))
    sched = SchedulerServer("sched", work, report_period=30)
    world.spawn(host("sched"), "sched", sched)

    pst = PersistentStateServer("pst")
    pst.add_validator(counter_example_validator)
    world.spawn(host("pst"), "pst", pst)

    logsrv = LoggingServer("log")
    world.spawn(host("log"), "log", logsrv)

    clients = []
    for i in range(N_CLIENTS):
        # Heterogeneous: client speeds differ 4x, and load fluctuates.
        h = host(f"cli{i}", speed=1e6 * (1 + i),
                 load=MeanRevertingLoad(mean=0.7, sigma=0.004))
        client = RamseyClient(
            f"cli{i}",
            schedulers=["sched/sched"],
            engine=RealEngine(max_steps_per_advance=400),
            infra="unix",
            loggers=["log/log"],
            persistent="pst/pst",
            gossip_well_known=["gossip/gossip"],
            work_period=10,
            report_period=30,
            seed=i,
        )
        world.spawn(h, "cli", client)
        clients.append(client)

    print(f"searching K_{K} for colorings with no monochromatic K_{N} "
          f"(R(4,4) = 18, so these exist) ...")
    env.run(until=1800)

    print(f"\nafter {env.now:.0f} simulated seconds:")
    print(f"  units assigned:   {sched.stats.units_assigned}")
    print(f"  progress reports: {sched.stats.reports}")
    found = sum(c.counter_examples_found for c in clients)
    print(f"  counter-examples found by clients: {found}")
    print(f"  persistent stores (verified): {pst.stats.stores}, "
          f"denied: {pst.stats.denials}")

    for key in pst.backend.keys():
        obj = pst.backend.get(key)
        coloring = Coloring.from_hex(obj["k"], obj["coloring"])
        ok = is_counter_example(coloring, obj["n"])
        print(f"  checkpoint {key}: independently re-verified: {ok}")

    print("\nbest result as seen through the gossip service:")
    for c in clients:
        best = c.store.get_data(RAMSEY_BEST)
        if best:
            print(f"  {c.name}: k={best['k']} energy={best['energy']:.0f} "
                  f"(origin {best.get('origin', '?')})")

    perf = logsrv.by_kind("perf")
    total_ops = sum(r.data["ops"] for r in perf)
    print(f"\nlogging server recorded {len(perf)} perf reports, "
          f"{total_ops:,.0f} useful integer ops delivered")


if __name__ == "__main__":
    main()

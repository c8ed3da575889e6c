"""Serial-vs-pool determinism: same seed, same bytes.

The compute plane's whole claim is that offloading changes wall-clock
time and nothing else. These tests run the same seeded scenarios with
the inline lane and a worker pool, and require identical simulation
outcomes — results, world
metrics snapshots (message counters per type are a wire-traffic
fingerprint), and search trajectories.
"""

import json

from repro.core.simdriver import SimDriver
from repro.experiments.export import headlines_json
from repro.experiments.sc98 import SC98Config, SC98World
from repro.parallel import KernelPool
from repro.ramsey.parallel import ParallelEvaluator, ParallelTabuCoordinator
from repro.simgrid.engine import Environment
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.load import ConstantLoad
from repro.simgrid.network import Network
from repro.simgrid.rand import RngStreams


def _tiny_cfg(pool: int) -> SC98Config:
    return SC98Config(scale=0.08, duration=900.0, seed=4, k=18, n=4,
                      engine="real", compute_pool=pool,
                      max_steps_per_advance=200)


def _run_world(pool: int) -> tuple[str, str]:
    world = SC98World(_tiny_cfg(pool))
    results = world.run()
    metrics = json.dumps(world.telemetry.metrics.snapshot(), sort_keys=True)
    return headlines_json(results), metrics


def test_sc98_pool_bit_identical_to_serial():
    serial_results, serial_metrics = _run_world(pool=0)
    pooled_results, pooled_metrics = _run_world(pool=2)
    assert pooled_results == serial_results
    # Equal msg.sent/msg.recv counters per mtype mean the pool run put
    # the same traffic on the wire, not just reached the same totals.
    assert pooled_metrics == serial_metrics


def test_sc98_pool_run_twice_identical():
    first = _run_world(pool=2)
    second = _run_world(pool=2)
    assert first == second


def _coordinator_world(k, n, lane=None, n_evals=2, seed=2, max_rounds=30):
    env = Environment()
    streams = RngStreams(seed=seed)
    net = Network(env, streams, jitter=0.0)

    def add(name):
        h = Host(env, HostSpec(name=name, speed=1e7,
                               load_model=ConstantLoad(1.0)), streams)
        net.add_host(h)
        return h

    contacts = []
    for i in range(n_evals):
        ev = ParallelEvaluator(f"eval{i}", lane=lane)
        SimDriver(env, net, add(f"eval{i}"), "eval", ev, streams).start()
        contacts.append(f"eval{i}/eval")
    coord = ParallelTabuCoordinator(
        "coord", k, n, contacts, candidates_per_eval=8,
        seed=seed, max_rounds=max_rounds, default_timeout=5.0)
    SimDriver(env, net, add("coord"), "coord", coord, streams).start()
    return env, coord


def _trajectory(coord) -> tuple:
    return (coord.rounds_closed, coord.moves_applied, coord.energy,
            coord.best_energy, coord.remote_ops,
            coord.best_coloring.to_hex())


def test_evaluator_lane_modes_preserve_coordinator_trajectory():
    env, baseline = _coordinator_world(14, 4)
    env.run(until=3000)

    lane = KernelPool(2)
    try:
        env2, pooled = _coordinator_world(14, 4, lane=lane)
        env2.run(until=3000)
    finally:
        lane.close()

    assert _trajectory(pooled) == _trajectory(baseline)

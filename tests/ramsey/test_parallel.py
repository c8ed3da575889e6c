"""Tests for the parallel tabu search (§6 future work, delivered)."""

import pytest

from repro.core.simdriver import SimDriver
from repro.ramsey.graphs import Coloring, count_mono_cliques
from repro.ramsey.parallel import ParallelEvaluator, ParallelTabuCoordinator
from repro.ramsey.verify import is_counter_example
from repro.simgrid.engine import Environment
from repro.simgrid.host import Host, HostSpec
from repro.simgrid.load import ConstantLoad
from repro.simgrid.network import Network
from repro.simgrid.rand import RngStreams


def build_world(k, n, n_evals=3, seed=2, max_rounds=None, jitter=0.0):
    env = Environment()
    streams = RngStreams(seed=seed)
    net = Network(env, streams, jitter=jitter)
    hosts = {}

    def add(name):
        h = Host(env, HostSpec(name=name, speed=1e7,
                               load_model=ConstantLoad(1.0)), streams)
        net.add_host(h)
        hosts[name] = h
        return h

    evaluators = []
    contacts = []
    for i in range(n_evals):
        h = add(f"eval{i}")
        ev = ParallelEvaluator(f"eval{i}")
        SimDriver(env, net, h, "eval", ev, streams).start()
        evaluators.append(ev)
        contacts.append(f"eval{i}/eval")

    coord = ParallelTabuCoordinator(
        "coord", k, n, contacts, candidates_per_eval=10,
        seed=seed, max_rounds=max_rounds, default_timeout=5.0)
    SimDriver(env, net, add("coord"), "coord", coord, streams).start()
    return env, net, hosts, coord, evaluators


def test_requires_evaluators():
    with pytest.raises(ValueError):
        ParallelTabuCoordinator("c", 5, 3, [])


def test_parallel_search_finds_counter_example():
    env, net, hosts, coord, evals = build_world(8, 4, n_evals=3)
    env.run(until=4000)
    assert coord.found
    best = coord.best_coloring
    assert is_counter_example(best, 4)
    assert coord.moves_applied > 0
    assert all(ev.rounds_served > 0 for ev in evals)


def test_energy_accounting_exact_despite_distribution():
    env, net, hosts, coord, evals = build_world(9, 4, n_evals=2, max_rounds=40)
    env.run(until=4000)
    assert coord.energy == count_mono_cliques(coord.coloring, 4)
    assert coord.best_energy == count_mono_cliques(coord.best_coloring, 4)


def test_round_barrier_counts():
    # K_6 / n=3 is unsolvable (R(3,3) = 6): the search can never stop
    # early, so the barrier arithmetic is fully observable.
    env, net, hosts, coord, evals = build_world(6, 3, n_evals=3, max_rounds=25)
    env.run(until=4000)
    assert coord.rounds_closed == 25
    # Healthy evaluators: no straggler-closed rounds.
    assert coord.straggler_rounds == 0
    # Every evaluator served every round.
    assert all(ev.rounds_served == 25 for ev in evals)
    assert coord.remote_ops > 0


def test_survives_evaluator_death():
    """A dead evaluator stalls exactly one barrier; rounds keep closing
    on the forecast time-out with partial results."""
    env, net, hosts, coord, evals = build_world(6, 3, n_evals=3, max_rounds=60)
    env.run(until=0.05)  # a few ~5ms rounds have closed
    hosts["eval1"].go_down("reclaimed")
    env.run(until=8000)
    assert coord.rounds_closed >= 60
    assert coord.straggler_rounds >= 1
    assert coord.moves_applied > 0


def test_late_responses_from_closed_rounds_ignored():
    """High jitter can deliver a PAR_BEST after its round timed out; the
    coordinator must not double-apply."""
    env, net, hosts, coord, evals = build_world(
        8, 4, n_evals=3, max_rounds=30, jitter=3.0, seed=6)
    env.run(until=8000)
    # However the rounds unfolded, the accounting must stay exact.
    assert coord.energy == count_mono_cliques(coord.coloring, 4)
    assert coord.rounds_closed >= 1


def test_each_answer_is_timed_once_from_its_rounds_start():
    """An evaluator's response time, which sizes the barrier time-out,
    runs from its round's start: a duplicate answer and a straggler
    from a closed round record nothing."""
    from repro.core.component import NullRuntime
    from repro.core.forecasting.benchmarking import event_tag
    from repro.core.linguafranca.messages import Message
    from repro.ramsey.parallel import PAR_BEST, PAR_EVAL, T_ROUND

    evaluators = ["e0/eval", "e1/eval"]
    coord = ParallelTabuCoordinator("coord", 17, 4, evaluators,
                                    candidates_per_eval=4, seed=1)
    coord.bind_runtime(NullRuntime(contact="coord/coord"))
    coord.on_start(0.0)

    def best(sender, rnd, now):
        coord.on_message(Message(mtype=PAR_BEST, sender=sender, body={
            "round": rnd, "edge": None, "delta": 0, "ops": 0}), now)

    def timed(evaluator):
        fc = coord.forecasts.forecast(event_tag(evaluator, PAR_EVAL))
        return None if fc is None else (fc.samples, fc.value)

    best("e0/eval", 1, 0.5)
    best("e0/eval", 1, 0.75)        # a duplicate
    coord.on_timer(T_ROUND, 5.0)    # e1 straggles; round 2 starts at 5.0
    best("e1/eval", 1, 5.2)         # from the closed round
    best("e1/eval", 2, 6.0)
    assert timed("e0/eval") == (1, pytest.approx(0.5))
    assert timed("e1/eval") == (1, pytest.approx(1.0))

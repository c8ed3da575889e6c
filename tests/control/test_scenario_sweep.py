"""A seed sweep on the twin: every workload, a random fault, no violation.

Each seed draws a workload (users, an ME sweep or hill climb, or a batch
of evaluations) and one fault — a gateway restart, a client crash, or
corrupted results from the first client — at a random time, and the one
checklist must find nothing. Cheap enough for tier 1 (about 0.1 s a
seed), and any failure names the seed that reproduces it exactly.
"""

import random

import pytest

from repro.control import Scenario, run_scenario
from repro.explore import make_eval_spec

SEEDS = range(100)


def _scenario(seed: int) -> Scenario:
    rng = random.Random(f"sweep:{seed}")
    workload = ("users", "sweep", "hill", "batch")[seed % 4]
    fault = rng.choice(["gateway", "client", "corrupt"])
    fields = dict(seed=seed, clients=rng.randint(2, 3), duration=40.0)
    if fault != "corrupt":
        fields.update(victim=fault, fault_at=round(rng.uniform(0.5, 12.0), 3))
    if workload == "users":
        fields.update(users=rng.randint(2, 4), duration=25.0)
        return Scenario(**fields)
    if fault != "client":  # a crashed forger would never forge
        fields["corrupt"] = rng.randint(0, 2)
    if workload == "batch":
        fields["specs"] = [make_eval_spec("sphere", {"x": i * 0.1}, seed=seed)
                           for i in range(rng.randint(3, 8))]
        return Scenario(**fields)
    return Scenario(algo=workload, scale=rng.choice([0.4, 0.5]), **fields)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_seed_holds_the_checklist(seed):
    scenario = _scenario(seed)
    report = run_scenario(scenario)
    assert report["violations"] == [], (scenario, report["violations"])
    assert report["gateway"]["work"]["results_rejected"] == scenario.corrupt

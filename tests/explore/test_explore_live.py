"""End-to-end: the explore scenario on real processes, a client killed.

One small live world (gateway + gossip + persistent + logger + two
computational clients), one grid sweep pushed through the ExploreQueue,
one SIGKILL of a client mid-sweep. The tier-1 guarantee for ROADMAP
item 4: every pushed evaluation is done exactly once and the killed
client restarted.
"""

import json
import os

import pytest

from repro.control import Scenario, run_scenario
from repro.live.supervisor import RestartPolicy


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("exploreworld")
    scenario = Scenario(algo="sweep", clients=2, duration=60.0, scale=0.5,
                        ops_budget=150_000.0, victim="client", fault_at=1.0)
    # Eight 0.5 s evaluations on two clients: the kill, 1 s after the
    # push, lands mid-unit. Against the default 3 s restart backoff,
    # whether the ME outran the respawn used to depend on the host's
    # mood; a 6 s backoff makes it outrun it every time, so the
    # lifecycle's wait for pending respawns is always on the path — and
    # the reaper, not an adopting HELLO, frees the orphan.
    return run_scenario(scenario, live=True, out=str(out),
                        restart=RestartPolicy(backoff=6.0)), str(out)


def test_every_evaluation_done_exactly_once_across_kill(report):
    rep, _ = report
    assert rep["violations"] == []
    jobs = rep["jobs"]
    assert jobs["accepted"] > 0
    assert jobs["states"] == {"done": jobs["accepted"]}
    assert jobs["not_done"] == []
    # Exactly-once at the store: one completion per pushed evaluation.
    assert rep["gateway"]["work"]["completed"] == jobs["accepted"]


def test_killed_client_restarted_and_me_finished(report):
    rep, _ = report
    assert [c["node"] for c in rep["chaos"]] == ["cli0"]
    assert rep["world"]["nodes"]["cli0"]["restarts"] >= 1
    summary = rep["driver"]
    assert summary["timed_out"] is False
    assert summary["evals"] == rep["jobs"]["accepted"]
    assert summary["best"] is not None


def test_report_artifact_written(report):
    rep, out = report
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk["violations"] == []
    assert on_disk["world"]["artifacts"] == rep["world"]["artifacts"]

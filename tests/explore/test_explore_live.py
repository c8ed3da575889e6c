"""End-to-end: the ME subsystem on real processes, with SIGKILL chaos.

One small live world (gateway + gossip + persistent + logger + two
computational clients), one grid sweep pushed through the ExploreQueue,
one SIGKILL of a client mid-sweep. The tier-1 guarantee for ROADMAP
item 4: every pushed evaluation is done exactly once and the killed
client restarted.
"""

import json
import os

import pytest

from repro.explore import ExploreConfig, run_explore
from repro.live.supervisor import RestartPolicy


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("exploreworld")
    config = ExploreConfig(algo="sweep", fn="forecast", clients=2,
                           duration=60.0, scale=0.5, ops_budget=50_000.0,
                           kill_at=1.5, seed=0)
    # The sweep takes 3.5-5 s and the default restart backoff 3 s from
    # the kill: whether the ME outran the respawn used to depend on the
    # host's mood (one loaded full-suite run in three failed "killed but
    # never restarted"). A 6 s backoff makes the ME outrun it every
    # time, so the harness's wait for pending respawns is always on the
    # path — and the reaper, not an adopting HELLO, frees the orphan.
    return run_explore(config, out=str(out),
                       restart=RestartPolicy(backoff=6.0)), str(out)


def test_every_evaluation_done_exactly_once_across_kill(report):
    rep, _ = report
    assert rep["violations"] == []
    assert rep["ok"]
    jobs = rep["jobs"]
    assert jobs["pushed"] > 0
    assert jobs["done"] == jobs["pushed"]
    assert jobs["not_done"] == []
    # Exactly-once at the store: completions never exceed pushed jobs.
    assert rep["work_stats"]["completed"] == jobs["pushed"]


def test_killed_client_restarted_and_me_finished(report):
    rep, _ = report
    assert [c["node"] for c in rep["chaos"]] == [rep["config"]["kill_node"]]
    assert rep["nodes"][rep["config"]["kill_node"]]["restarts"] >= 1
    summary = rep["summary"]
    assert summary["timed_out"] is False
    assert summary["evals"] == rep["jobs"]["pushed"]
    assert summary["best"] is not None


def test_report_artifact_written(report):
    rep, out = report
    path = os.path.join(out, "explore_report.json")
    assert rep["artifacts"]["report"] == path
    with open(path, encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk["ok"] is True

"""End-to-end: the users scenario as real OS processes on localhost.

One deliberately-small world (gateway + gossip + persistent + logger +
Ramsey client), one HTTP storm, one chaos SIGKILL of the gateway
mid-storm. This is the tier-1 guarantee for ROADMAP item 2: the gateway
serves real sockets, jobs flow to real clients, and no accepted job is
lost across a gateway kill/restart.
"""

import copy
import json

import pytest

from repro.control import Scenario, check_scenario, run_scenario
from repro.obs.prom import parse_prometheus, render_prometheus


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("serveworld")
    scenario = Scenario(users=10, clients=1, duration=6.0, fault_at=2.5)
    return run_scenario(scenario, live=True, out=str(out)), out


def test_no_accepted_job_lost_across_kill_restart(report):
    rep, _ = report
    assert rep["violations"] == []
    assert rep["jobs"]["accepted"] > 0
    assert rep["jobs"]["lost"] == []


def test_gateway_was_killed_and_restarted(report):
    rep, _ = report
    assert [c["node"] for c in rep["chaos"]] == ["gw0"]
    nodes = rep["world"]["nodes"]
    assert nodes["gw0"]["restarts"] >= 1
    assert nodes["gw0"]["incarnation"] >= 1


def test_storm_exercised_all_verbs(report):
    rep, _ = report
    assert rep["users"]["submitted"] > 0
    assert rep["users"]["queried"] > 0
    assert rep["users"]["cancelled"] > 0


def test_every_accepted_id_reached_a_terminal_or_live_state(report):
    rep, _ = report
    states = rep["jobs"]["states"]
    assert sum(states.values()) == rep["jobs"]["accepted"]
    assert set(states) <= {"queued", "assigned", "done", "cancelled"}


def test_all_nodes_shipped_telemetry(report):
    rep, _ = report
    for name, node in rep["world"]["nodes"].items():
        assert node["reports"] >= 1, name


def test_gateway_stats_include_job_meters(report):
    rep, _ = report
    jobs = rep["world"]["nodes"]["gw0"]["stats"].get("jobs", {})
    # The journaled meters survive the restart: the reborn gateway
    # recounts them from its journal.
    assert jobs.get("submitted", 0) == jobs.get("state_total", 0) > 0
    assert rep["gateway"]["work"]["submitted"] >= rep["jobs"]["accepted"]


def test_artifacts_parse_and_agree(report):
    rep, out = report
    loaded = json.loads((out / "report.json").read_text())
    assert loaded["violations"] == []
    assert loaded["jobs"]["accepted"] == rep["jobs"]["accepted"]
    assert (out / "manifest.json").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert any(k.startswith("http.requests")
               for k in metrics.get("counters", {}))
    # The merged snapshot renders with the per-site delivered-vs-available
    # gauges the scenario pushed to the gateway intact.
    rows = parse_prometheus(render_prometheus(metrics))
    assert {row["labels"]["site"] for row in rows
            if row["name"] == "site_utilisation"}


def test_checklist_flags_loss(report):
    rep, _ = report
    broken = copy.deepcopy(rep)
    broken["jobs"]["lost"] = ["t-1"]
    assert any("lost" in v for v in check_scenario(broken))

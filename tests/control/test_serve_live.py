"""End-to-end: the control plane as real OS processes on localhost.

One deliberately-small serve world (gateway + gossip + persistent +
logger + Ramsey client), one HTTP storm, one chaos SIGKILL of the
gateway mid-storm. This is the tier-1 guarantee for ROADMAP item 2: the
gateway serves real sockets, jobs flow to real clients, and no accepted
job is lost across a gateway kill/restart.
"""

import json

import pytest

from repro.control import ServeConfig, check_serve_invariants, run_serve
from repro.obs.prom import parse_prometheus, render_prometheus


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("serveworld")
    # Site gauges are pushed every 0.5 s so the restarted gateway, whose
    # report replaces the killed one's, holds them too.
    config = ServeConfig(clients=1, gateways=1, gossips=1, persistents=1,
                         loggers=1, storm_clients=10, duration=6.0,
                         kill_at=2.5, sites_period=0.5, seed=0)
    return run_serve(config, out=str(out)), out


def test_no_accepted_job_lost_across_kill_restart(report):
    rep, _ = report
    assert rep.violations == []
    assert rep.ok
    assert rep.accepted > 0
    assert rep.jobs_lost == []


def test_gateway_was_killed_and_restarted(report):
    rep, _ = report
    assert [c["node"] for c in rep.chaos] == ["gw0"]
    assert rep.nodes["gw0"]["restarts"] >= 1
    assert rep.nodes["gw0"]["incarnation"] >= 1


def test_storm_exercised_all_verbs(report):
    rep, _ = report
    assert rep.storm["submitted"] > 0
    assert rep.storm["queried"] > 0
    assert rep.storm["cancelled"] > 0


def test_every_accepted_id_reached_a_terminal_or_live_state(report):
    rep, _ = report
    assert sum(rep.job_states.values()) == rep.accepted
    assert set(rep.job_states) <= {"queued", "assigned", "done", "cancelled"}


def test_all_nodes_shipped_telemetry(report):
    rep, _ = report
    for name, node in rep.nodes.items():
        assert node["reports"] >= 1, name


def test_gateway_stats_include_job_meters(report):
    rep, _ = report
    jobs = rep.nodes["gw0"]["stats"].get("jobs", {})
    # `submitted` counts since the last restart, and the reborn gateway
    # may see no submit in what is left of the run; the journal replay
    # guarantees the jobs themselves are there.
    assert "submitted" in jobs
    assert jobs.get("state_total", 0) > 0


def test_artifacts_parse_and_agree(report):
    rep, out = report
    loaded = json.loads((out / "report.json").read_text())
    assert loaded["ok"] is True
    assert loaded["accepted"] == rep.accepted
    assert (out / "manifest.json").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert any(k.startswith("http.requests")
               for k in metrics.get("counters", {}))
    # The merged snapshot renders with the per-site delivered-vs-available
    # gauges the harness pushed to the gateway intact.
    rows = parse_prometheus(render_prometheus(metrics))
    assert {row["labels"]["site"] for row in rows
            if row["name"] == "site_utilisation"}


def test_check_serve_invariants_flags_loss(report):
    rep, _ = report
    import copy

    broken = copy.copy(rep)
    broken.jobs_lost = ["t-1"]
    assert any("lost" in v for v in check_serve_invariants(broken))

"""The simulated twin of ``repro serve``: deterministic, byte-stable.

Simulated users submit/query/cancel jobs through the same GatewayCore
routing table the live HTTP plane serves, simulated workers execute
them through the same unmodified SchedulerServer — and the whole run is
a pure function of the seed, including a mid-run gateway restart.
"""

import hashlib
import json

from repro.control import run_sim_serve


def _dumps(report):
    return json.dumps(report, sort_keys=True)


def test_run_twice_is_byte_identical():
    kwargs = dict(seed=11, users=3, workers=2, duration=25.0)
    assert _dumps(run_sim_serve(**kwargs)) == _dumps(run_sim_serve(**kwargs))


def test_restart_is_deterministic_and_loses_nothing():
    kwargs = dict(seed=3, users=3, workers=2, duration=30.0,
                  restart_after=12.0)
    first = run_sim_serve(**kwargs)
    second = run_sim_serve(**kwargs)
    assert _dumps(first) == _dumps(second)  # chaos included in the contract
    assert first["gateway"]["restarts"] == 1
    assert first["jobs_lost"] == []
    assert first["violations"] == []
    assert first["accepted_total"] > 0


def test_workers_actually_execute_submitted_jobs():
    report = run_sim_serve(seed=5, users=3, workers=2, duration=30.0)
    work = report["gateway"]["work"]
    done = work["state_done"]
    assert done > 0
    # Worker-side completions may exceed state_done: a report can still
    # be in flight at the horizon, or race a cancel and be dropped.
    assert sum(report["workers"].values()) >= done
    # Everything accepted is accounted for in a terminal-or-live state.
    counts = report["gateway"]["work"]
    assert (counts["state_queued"] + counts["state_assigned"]
            + counts["state_done"] + counts["state_cancelled"]
            == report["accepted_total"])


def test_seed_changes_the_world():
    a = run_sim_serve(seed=1, users=3, workers=2, duration=20.0)
    b = run_sim_serve(seed=2, users=3, workers=2, duration=20.0)
    assert _dumps(a) != _dumps(b)


def _cli_sha(report):
    """SHA-256 of the bytes ``repro serve --simulate --out`` writes."""
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_ci_twin_report_is_pinned_byte_for_byte():
    """``repro serve --simulate --storm 4 --clients 3 --duration 60
    --kill-at 25 --seed 11`` — the configuration CI used to run twice and
    diff. Pinning the digest proves determinism *and* that a refactor of
    the twin, the gateway or the user mix changed no byte of it."""
    report = run_sim_serve(seed=11, users=4, workers=3, duration=60.0,
                           restart_after=25.0)
    assert report["violations"] == []
    assert report["gateway"]["restarts"] == 1
    assert report["jobs_lost"] == []
    assert report["accepted_total"] > 0
    assert _cli_sha(report) == (
        "366e784c6c57d438d1c0350011cea4c68bd315314bce96d03cbef00862b6eef3")

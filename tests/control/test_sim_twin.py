"""The users scenario on the twin: deterministic, byte-stable.

Simulated users submit/query/cancel jobs over HTTP through the same
decoder and app the live gateway serves, simulated workers execute
them through the same unmodified SchedulerServer — and the whole run is
a pure function of the scenario, including a mid-run gateway restart.
"""

import hashlib
import json

from repro.cli import main
from repro.control import Scenario, run_scenario


def _dumps(report):
    return json.dumps(report, sort_keys=True)


def _run(**fields):
    return run_scenario(Scenario(**fields))


def test_run_twice_is_byte_identical():
    kwargs = dict(seed=11, users=3, clients=2, duration=25.0)
    assert _dumps(_run(**kwargs)) == _dumps(_run(**kwargs))


def test_restart_is_deterministic_and_loses_nothing():
    kwargs = dict(seed=3, users=3, clients=2, duration=30.0, fault_at=12.0)
    first = _run(**kwargs)
    second = _run(**kwargs)
    assert _dumps(first) == _dumps(second)  # chaos included in the contract
    assert first["gateway"]["restarts"] == 1
    assert first["chaos"] == [{"t": 12.0, "node": "gw0", "restarted": True}]
    assert first["jobs"]["lost"] == []
    assert first["violations"] == []
    assert first["jobs"]["accepted"] > 0


def test_workers_actually_execute_submitted_jobs():
    report = _run(seed=5, users=3, clients=2, duration=30.0)
    work = report["gateway"]["work"]
    done = work["state_done"]
    assert done > 0
    # Worker-side completions may exceed state_done: a report can still
    # be in flight at the horizon, or race a cancel and be dropped.
    assert sum(report["workers"].values()) >= done
    # Everything accepted is accounted for in a terminal-or-live state.
    assert (work["state_queued"] + work["state_assigned"]
            + work["state_done"] + work["state_cancelled"]
            == report["jobs"]["accepted"])


def test_seed_changes_the_world():
    a = _run(seed=1, users=3, clients=2, duration=20.0)
    b = _run(seed=2, users=3, clients=2, duration=20.0)
    assert _dumps(a) != _dumps(b)


def _cli_sha(report):
    """SHA-256 of the bytes ``repro serve --simulate --out`` writes."""
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: ``repro serve --simulate --storm 4 --clients 3 --duration 60
#: --kill-at 25 --seed 11``, the configuration CI used to run twice and diff.
#: ``jobs.requeues`` is 1: gw0-job-27, requeued once and done at 13.0 s,
#: keeps its requeue across the restart at 25 s (it said 0 while the
#: twin's journal kept record dicts without the finished body).
#: Re-pinned when request bodies became compact JSON (no spaces after
#: ``,`` and ``:``, keys sorted): a user's ``POST /jobs`` is fewer bytes
#: on the simulated wire, so it lands sooner and the scheduler hands out
#: units in another order — ``sch.migrations`` 15 -> 13 (both places it
#: is reported), jobs per worker 43/50/45 -> 39/53/46, and
#: ``forecast.abs_error.total`` 0.090255524 -> 0.08852326 follows the
#: changed traffic.
#: Re-pinned when a segment became bytes, charged its header plus its
#: length rather than the JSON escape of its text (``\r\n`` counted 4):
#: every HTTP segment is fewer simulated bytes and lands sooner, so
#: units go out in another order again — one more migration reclaims a
#: unit in hand (``sch.migrations`` 13 -> 14, ``units_requeued`` and
#: ``jobs.requeues`` 1 -> 2, ``units_assigned`` 139 -> 140, SCH_ACK
#: 140 -> 141), one hello fewer is sent (SCH_HELLO and SCH_WORK 127 ->
#: 126, ``net.delivered`` 1580 -> 1579), jobs per worker 39/53/46 ->
#: 43/49/46, and ``forecast.abs_error.total`` 0.08852326 -> 0.091226749
#: follows the changed traffic.
CI_SHA = "13ecf7e90583bf152fd41a155616f624d1beb7bd4fe531fe089133e91357c265"


def test_ci_twin_report_is_pinned_byte_for_byte():
    """Pinning the digest proves determinism *and* that a refactor of the
    twin, the gateway or the user mix changed no byte of it."""
    report = _run(seed=11, users=4, clients=3, duration=60.0, fault_at=25.0)
    assert report["violations"] == []
    assert report["gateway"]["restarts"] == 1
    assert report["jobs"]["lost"] == []
    assert report["jobs"]["accepted"] > 0
    assert _cli_sha(report) == CI_SHA


def test_cli_writes_the_pinned_bytes(tmp_path, capsys):
    assert main(["serve", "--simulate", "--storm", "4", "--clients", "3",
                 "--duration", "60", "--kill-at", "25", "--seed", "11",
                 "--out", str(tmp_path)]) == 0
    assert "invariants: OK" in capsys.readouterr().out
    data = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == CI_SHA

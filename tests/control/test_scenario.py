"""One ``Scenario``, two worlds, one checklist.

The same explore scenario — a grid sweep with the gateway killed 1.5 s
in — runs on the twin and as real processes, each in its own process;
both reports have one shape and pass one checklist. The checklist and
the refusals are tested on their own below; a seed sweep over every
workload and fault on the twin is in ``test_scenario_sweep.py``.
"""

import copy
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.control import Scenario, check_scenario, run_scenario
from repro.control.scenario import _report
from repro.live.supervisor import RestartPolicy

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: Kill the gateway mid-sweep: 8 evaluations of 0.5 s each live (about
#: 2 s of work for two clients that start ~0.7 s in, so the 1.5 s kill
#: lands mid-sweep), 3.75 s each on the twin.
GATEWAY_KILL = dict(algo="sweep", clients=2, scale=0.5, ops_budget=150_000.0,
                    fault_at=1.5, duration=60.0)

RUN = """
import json, sys
from repro.control import Scenario, run_scenario
report = run_scenario(Scenario(**json.loads(sys.argv[2])),
                      live=sys.argv[1] == "live")
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def both_worlds():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    procs = {world: subprocess.Popen(
        [sys.executable, "-c", RUN, world, json.dumps(GATEWAY_KILL)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for world in ("twin", "live")}
    reports = {}
    for world, proc in procs.items():
        out, err = proc.communicate(timeout=180)
        assert proc.returncode == 0, err[-2000:]
        reports[world] = json.loads(out.splitlines()[-1])
    return reports["twin"], reports["live"]


def test_one_scenario_one_report_shape_one_checklist(both_worlds):
    twin, live = both_worlds
    assert set(twin) == set(live)
    assert twin["config"] == live["config"]
    for report in (twin, live):
        assert report["violations"] == [] == check_scenario(report), (
            report["world"]["name"], report["violations"], report["jobs"],
            report["chaos"], report["gateway"]["work"])
    assert (twin["world"]["name"], live["world"]["name"]) == ("twin", "live")


def test_the_gateway_dies_and_comes_back_on_both_worlds(both_worlds):
    twin, live = both_worlds
    assert twin["chaos"] == [{"t": 1.5, "node": "gw0", "restarted": True}]
    (kill,) = live["chaos"]
    assert kill["node"] == "gw0" and kill["restarted"]
    for report in (twin, live):
        assert report["gateway"]["restarts"] == 1


def test_the_live_pump_rides_out_the_restart(both_worlds):
    """The ME pump treats an unreachable gateway as a missed poll, and
    the reborn gateway's journaled meters count every completion."""
    twin, live = both_worlds
    for report in (twin, live):
        jobs = report["jobs"]
        assert jobs["states"] == {"done": jobs["accepted"]} == {"done": 8}
        assert report["gateway"]["work"]["completed"] == 8
        assert report["gateway"]["work"]["submitted"] == 8
    assert twin["driver"]["best"] == live["driver"]["best"]
    assert live["world"]["seconds"] <= 20.0


# -- the checklist, fed by hand ------------------------------------------------

def _clean(workload="explore", accepted=8):
    return {
        "config": {"workload": workload, "duration": 60.0, "corrupt": 0},
        "world": {"name": "twin", "seconds": 60.0},
        "jobs": {"accepted": accepted, "lost": [],
                 "states": {"done": accepted}, "not_done": [],
                 "requeues": 0, "finished": True},
        "gateway": {"restarts": 0, "work": {"completed": accepted,
                                            "results_rejected": 0}},
        "workers": {}, "chaos": [], "metrics": {},
    }


def test_a_clean_report_passes():
    assert check_scenario(_clean()) == []


def test_a_double_completion_is_flagged():
    report = _clean()
    report["gateway"]["work"]["completed"] = 9     # pushed + 1
    assert any("exactly-once broken: 9 completions for 8 pushed" in v
               for v in check_scenario(report))


@pytest.mark.parametrize("breakage,expected", [
    (lambda r: r["jobs"].update(lost=["j-1"]), "1 accepted job(s) lost"),
    (lambda r: r["jobs"].update(accepted=0), "never got a single job"),
    (lambda r: r["jobs"].update(finished=False), "did not finish"),
    (lambda r: r["jobs"].update(states={"done": 7}, not_done=["j-2"]),
     "1 pushed job(s) not done"),
    (lambda r: r["config"].update(corrupt=1), "expected 1 rejected"),
    (lambda r: r["chaos"].append({"t": 1.0, "node": "cli0",
                                  "restarted": False}),
     "cli0 was killed but never restarted"),
    (lambda r: r["world"].update(nodes={"gw0": {"reports": 0}}),
     "gw0: never shipped a telemetry report"),
])
def test_each_broken_promise_is_named(breakage, expected):
    report = copy.deepcopy(_clean())
    breakage(report)
    assert any(expected in v for v in check_scenario(report)), expected


def test_users_need_not_retire_what_they_submit():
    report = _clean("users")
    report["jobs"].update(states={"done": 7}, not_done=["j-1"])
    report["gateway"]["work"]["completed"] = 3
    assert check_scenario(report) == []


def test_a_report_names_five_unfinished_jobs_and_counts_them_all():
    ids = [f"j-{i:02d}" for i in range(30)]
    records = {job_id: {"state": "done" if i < 3 else "queued"}
               for i, job_id in enumerate(ids)}
    report = _report(Scenario(algo="sweep"), {"name": "twin"}, ids, records,
                     True, gateway={"work": {"completed": 30}}, chaos=[])
    assert report["jobs"]["not_done"] == ["j-03", "j-04", "j-05", "j-06",
                                          "j-07"]
    assert ("27 pushed job(s) not done: ['j-03', 'j-04', 'j-05', 'j-06', "
            "'j-07']") in check_scenario(report)


# -- what a world cannot run ---------------------------------------------------

@pytest.mark.parametrize("scenario,kwargs,message", [
    (Scenario(), {}, "exactly one workload"),
    (Scenario(users=2, algo="sweep"), {}, "exactly one workload"),
    (Scenario(algo="sweep", victim="logger"), {}, "unknown victim"),
    (Scenario(users=2, corrupt=1), {}, "no evaluation results"),
    (Scenario(algo="sweep", corrupt=1), {"live": True}, "cannot forge"),
    (Scenario(algo="sweep"), {"live": True, "telemetry": object()},
     "cannot forge"),
    (Scenario(algo="sweep"), {"restart": RestartPolicy()}, "no supervisor"),
])
def test_a_world_refuses_what_it_cannot_run(scenario, kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_scenario(scenario, **kwargs)

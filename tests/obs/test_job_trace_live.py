"""One job's trace across a SIGKILLed client's two incarnations, live.

The users scenario as real OS processes with one worker client,
SIGKILLed mid-unit. The supervisor recovers the dead incarnation's
flight-recorder spool, the reaper requeues the orphaned unit, and the
merged span set
must hold one connected trace whose work spans come from both
incarnations of the client, merged onto one timeline around the
requeue. Cancels are off: a cancelled in-flight job is (correctly)
dropped on requeue.

The kill lands mid-unit by construction. On K_18 there is no R(4,4)
counter-example (R(4,4) = 18), so a unit never ends early: it runs its
whole ops budget, 600k ops or 2 s at the topology's 300k ops/s. The
world kills a client victim at 1.5 s into the storm or, if later, once
the client's shipped stats show a unit in hand and ops run on it: a
client that said hello before the first job arrived idles until its
next hello, 2 s later, and a kill at 1.5 s would orphan nothing. The
replacement restarts after the 3 s backoff and finishes the requeued
unit at most about 8 s into the storm, inside the 9 s run.
"""

import collections
import json

import pytest

from repro.cli import main as cli_main
from repro.control import Scenario, run_scenario
from repro.obs.jobtrace import span_origin

LIFECYCLE = {"job ingress", "job assign", "job requeue", "job done"}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tracekill")
    scenario = Scenario(users=10, clients=1, duration=9.0, fault_at=1.5,
                        victim="client", cancel_fraction=0.0, k=18, n=4,
                        ops_budget=600_000.0)
    return run_scenario(scenario, live=True, out=str(out)), out


def _crossing_trace(spans):
    """The first trace with the whole job lifecycle whose work spans come
    from two incarnations, as ``(requeue span, first, second)`` work
    start times; None if there is none."""
    by_trace = collections.defaultdict(list)
    for span in spans:
        by_trace[span["trace_id"]].append(span)
    for group in by_trace.values():
        if not LIFECYCLE <= {s["name"] for s in group}:
            continue
        work = collections.defaultdict(list)
        for s in group:
            if s["name"] == "job work":
                work[span_origin(s["span_id"])[1]].append(s["start"])
        if len(work) < 2:
            continue
        requeue = next(s for s in group if s["name"] == "job requeue")
        return requeue, work[min(work)], work[max(work)]
    return None


def test_one_trace_crosses_both_incarnations_around_the_requeue(run):
    report, out = run
    assert report["violations"] == []
    assert [c["node"] for c in report["chaos"]] == ["cli0"]
    spans = json.loads((out / "spans.json").read_text())["spans"]
    crossing = _crossing_trace(spans)
    assert crossing is not None, (
        "no trace with work spans in two incarnations around a requeue")
    requeue, first, second = crossing
    assert max(first) <= requeue["start"] <= min(second)


def test_killed_incarnation_spool_recovered(run):
    _, out = run
    report = json.loads((out / "report.json").read_text())
    assert 0 in report["world"]["nodes"]["cli0"]["flights_recovered"]


def test_trace_job_renders_the_requeue_and_second_incarnation(run, capsys):
    _, out = run
    spans = json.loads((out / "spans.json").read_text())["spans"]
    requeue, _, _ = _crossing_trace(spans)
    assert cli_main(["trace", "--job", requeue["args"]["id"],
                     "--from", str(out)]) == 0
    rendered = capsys.readouterr().out
    assert "job requeue" in rendered
    assert "inc1" in rendered

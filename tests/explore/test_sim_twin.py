"""The deterministic twin: byte-identical worlds, chaos included.

This is the tentpole's sim gate: the full ME subsystem — driver
component, gateway, scheduler, workers — runs under simulated time, and
same-seed runs must serialize to identical bytes even with a mid-run
gateway restart and corrupted worker results in the schedule.
"""

import hashlib
import json

import pytest

from repro.control import GatewayCore, WorkQueue
from repro.control.sim import GW_RES
from repro.core.component import NullRuntime, Send
from repro.core.linguafranca.messages import Message
from repro.explore import make_eval_spec, run_sim_explore
from repro.explore.evals import execute_unit
from repro.explore.sim import MEDriverComponent


def _canon(report):
    return json.dumps(report, sort_keys=True)


@pytest.fixture(scope="module")
def chaos_pair():
    """Two same-seed hill runs with a gateway restart AND a corrupted
    result in the schedule."""
    kwargs = dict(seed=7, algo="hill", duration=240.0, scale=0.5,
                  restart_after=4.0, corrupt_first=1)
    return run_sim_explore(**kwargs), run_sim_explore(**kwargs)


def test_sim_twin_is_byte_identical_under_chaos(chaos_pair):
    a, b = chaos_pair
    assert _canon(a) == _canon(b)


def test_sim_twin_holds_invariants_under_chaos(chaos_pair):
    a, _ = chaos_pair
    assert a["violations"] == []
    assert a["gateway"]["restarts"] == 1
    # Exactly-once: every pushed evaluation completed once, even though
    # the restart requeued in-flight assignments.
    assert a["gateway"]["work"]["completed"] == a["me"]["pushed"]
    assert a["me"]["outstanding"] == 0
    assert a["driver"]["best"] is not None


def test_sim_twin_rejects_corrupted_results_then_converges(chaos_pair):
    a, _ = chaos_pair
    # The corrupting worker's first report failed its §3.1 check: the
    # evaluation was requeued and honestly re-executed, never recorded.
    assert a["gateway"]["work"]["results_rejected"] == 1
    assert sum(w.get("results_corrupted", 0)
               for w in a["workers"].values()) == 1
    assert a["driver"]["failed"] == 0        # the ME never saw a bad value


def test_sim_twin_sweep_consumes_whole_grid():
    report = run_sim_explore(seed=3, algo="sweep", duration=120.0, scale=0.4)
    assert report["violations"] == []
    assert report["driver"]["evals"] == report["driver"]["expected"]
    assert report["me"]["rounds"] == []      # sweeps have no follow-ups


def test_sim_twin_seed_changes_world():
    a = run_sim_explore(seed=1, algo="sweep", duration=120.0, scale=0.4)
    b = run_sim_explore(seed=2, algo="sweep", duration=120.0, scale=0.4)
    assert _canon(a) != _canon(b)


def test_sim_twin_never_asks_about_a_job(chaos_pair):
    """Both planes keep one contract: results ride the /events feed."""
    a, _ = chaos_pair
    requests = {key: n for key, n in a["metrics"]["counters"].items()
                if key.startswith("http.requests{")}
    assert requests and all(
        "route=POST /jobs/batch," in key or "route=GET /events," in key
        for key in requests)
    assert sum(requests.values()) == a["gateway"]["requests"]


# -- the ME component against the real router, message by message -----------

class _Observed:
    """A driver that only records what the ME feeds it."""

    def __init__(self, specs):
        self.specs, self.seen = specs, []

    def initial_tasks(self):
        return self.specs

    def observe(self, spec, result):
        self.seen.append((spec, result))

    def next_tasks(self):
        return []

    def finished(self):
        return False                        # keep the ME polling


def _answer(me, core, effects, now):
    """Route every GW_REQ in ``effects`` and hand the ME the GW_RES."""
    for effect in effects:
        if not isinstance(effect, Send):
            continue
        body = effect.message.body
        raw = json.dumps(body["body"]).encode() if body["body"] else b""
        status, doc, _ = core.handle(body["method"], body["path"], raw, now)
        assert me.on_message(Message(
            mtype=GW_RES, sender="gw0/gw",
            body={"status": status, "body": doc, "rid": body["rid"]}),
            now) == []


def test_me_component_retires_jobs_from_feed_lines_field_by_field():
    work = WorkQueue(prefix="t")
    core = GatewayCore("gw0", work)
    specs = [make_eval_spec("sphere", {"x": float(i)}, seed=0)
             for i in range(5)]
    me = MEDriverComponent("me0", "gw0/gw", _Observed(specs))
    me.bind_runtime(NullRuntime("me0/me"))
    _answer(me, core, me.on_start(0.0), 0.0)
    assert me.pushed == 5 and sorted(me.outstanding) == me.pushed_ids

    work.requeue(work.next_unit())          # a requeue before completion
    work.cancel(me.pushed_ids[4], now=0.5)
    for _ in range(4):
        unit = work.next_unit()
        work.complete(str(unit["id"]), execute_unit(unit))
    _answer(me, core, me.on_timer("me:poll", 1.0), 1.0)
    assert me.popped == 5 and not me.outstanding
    assert core.requests == 2               # one batch, one /events read
    records = [work.get(job_id).to_dict() for job_id in me.pushed_ids]
    assert sorted(me.driver.seen, key=lambda pair: pair[0]["params"]["x"]) \
        == [(record["spec"], record["result"]) for record in records]

    # A reborn feed numbers from 0: the cursor adopts it, and lines read
    # a second time are deduped on `outstanding`.
    stranded = me.since
    core.events = work.events = type(core.events)()
    work._event("noise", "x", now=2.0)
    _answer(me, core, me.on_timer("me:poll", 2.0), 2.0)
    assert me.since == 0 < stranded
    assert me.popped == 5


def _cli_sha(report):
    """SHA-256 of the bytes ``repro explore --simulate --out`` writes."""
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_ci_sweep_twin_report_is_pinned_byte_for_byte():
    """``repro explore --simulate --algo sweep --scale 0.4 --duration 120
    --seed 3`` (the CLI's defaults: 2 workers, ops budget 20,000)."""
    report = run_sim_explore(seed=3, algo="sweep", workers=2, scale=0.4,
                             duration=120.0)
    assert report["violations"] == []
    assert report["driver"]["evals"] == report["driver"]["expected"]
    assert _cli_sha(report) == (
        "4f41836a255f2c919c38a1210ea8edd6b97e1bda542609d4c4cdb2705a4b3619")


def test_ci_hill_twin_report_is_pinned_byte_for_byte():
    """``repro explore --simulate --algo hill --scale 0.5 --duration 240
    --seed 7 --kill-at 4 --corrupt-first 1``: a gateway restart and a
    corrupted result in the schedule, and still not a byte moves."""
    report = run_sim_explore(seed=7, algo="hill", workers=2, scale=0.5,
                             duration=240.0, restart_after=4.0,
                             corrupt_first=1)
    assert report["violations"] == []
    work = report["gateway"]["work"]
    assert work["completed"] == report["me"]["pushed"]
    assert work["results_rejected"] == 1
    assert report["gateway"]["restarts"] == 1
    assert report["driver"]["failed"] == 0   # the ME never saw a bad value
    assert _cli_sha(report) == (
        "5312b54c376fd08d38b5e918a68bd614d2f77a4a3089bce8f2554c79f07b0e5b")

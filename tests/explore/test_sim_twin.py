"""The deterministic twin: byte-identical worlds, chaos included.

The explore scenario on the twin: the full ME subsystem — the pump on
an HTTP user, gateway, scheduler, workers — runs under simulated time, and
same-seed runs must serialize to identical bytes even with a mid-run
gateway restart and corrupted worker results in the schedule.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.control import GatewayCore, Scenario, WorkQueue, run_scenario
from repro.control.gateway import http_app
from repro.control.http import (HttpDecoder, HttpResponseDecoder,
                                render_request, respond)
from repro.explore import make_eval_spec
from repro.explore.evals import execute_unit
from repro.explore.queue import FeedPump


def _canon(report):
    return json.dumps(report, sort_keys=True)


def _explore(**fields):
    return run_scenario(Scenario(**fields))


@pytest.fixture(scope="module")
def chaos_pair():
    """Two same-seed hill runs with a gateway restart AND a corrupted
    result in the schedule."""
    kwargs = dict(seed=7, algo="hill", duration=240.0, scale=0.5,
                  fault_at=4.0, corrupt=1)
    return _explore(**kwargs), _explore(**kwargs)


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
    report = _explore(seed=3, algo="sweep", clients=3, duration=120.0,
                             scale=0.4)
    assert report["violations"] == []
    assert report["driver"]["evals"] == report["driver"]["expected"]
    assert report["me"]["rounds"] == []      # sweeps have no follow-ups


def test_sim_twin_seed_changes_world():
    a = _explore(seed=1, algo="sweep", duration=120.0, scale=0.4)
    b = _explore(seed=2, algo="sweep", duration=120.0, scale=0.4)
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


# -- the ME pump against the real app, request by request -------------------

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


def _exchange(pump, core, now):
    """The pump's next request through the gateway's app as bytes, and
    the answer back."""
    kind, method, path, doc = pump.next_request()
    requests = HttpDecoder()
    requests.feed(render_request(method, path, doc, "gw0"))
    responses = HttpResponseDecoder()
    responses.feed(respond(http_app(core, lambda: now),
                           requests.next_request()))
    status, _, body = responses.next_response()
    pump.answer(kind, status, body, now)


def test_me_component_retires_jobs_from_feed_lines_field_by_field():
    work = WorkQueue(prefix="t")
    core = GatewayCore("gw0", work)
    specs = [make_eval_spec("sphere", {"x": float(i)}, seed=0)
             for i in range(5)]
    pump = FeedPump(_Observed(specs))
    _exchange(pump, core, 0.0)
    assert pump.pushed == 5 and sorted(pump.outstanding) == pump.pushed_ids

    work.requeue(work.next_unit())          # a requeue before completion
    work.cancel(pump.pushed_ids[4], now=0.5)
    for _ in range(4):
        unit = work.next_unit()
        work.complete(str(unit["id"]), execute_unit(unit))
    _exchange(pump, core, 1.0)
    assert pump.popped == 5 and not pump.outstanding
    assert core.requests == 2               # one batch, one /events read
    records = [work.get(job_id).to_dict() for job_id in pump.pushed_ids]
    assert sorted(pump.driver.seen, key=lambda pair: pair[0]["params"]["x"]) \
        == [(record["spec"], record["result"]) for record in records]

    # A reborn feed numbers from 0: the cursor adopts it, and lines read
    # a second time are deduped on `outstanding`.
    stranded = pump.since
    core.events = work.events = type(core.events)()
    work._event("noise", "x", now=2.0)
    _exchange(pump, core, 2.0)
    assert pump.since == 0 < stranded
    assert pump.popped == 5


def _cli_sha(report):
    """SHA-256 of the bytes ``repro explore --simulate --out`` writes."""
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: ``repro explore --simulate --algo sweep --scale 0.4 --duration 120
#: --seed 3`` (the CLI's defaults: 2 clients, ops budget 20,000).
SWEEP_ARGS = ["--algo", "sweep", "--scale", "0.4", "--duration", "120",
              "--seed", "3"]
#: Re-pinned when the twin's pump took the live feed rule (a long-poll
#: with ``wait``, paced by the pump): 9 ``/events`` reads instead of 19,
#: so ``gateway.requests`` 20 -> 10 and the HTTP message and delivery
#: counts with them; results retire as their lines arrive, so
#: ``me.finished_at`` 5.185 -> 5.043, ``pop_p50``/``pop_max`` move, and
#: ``forecast.abs_error.total`` follows the changed network traffic.
#: Re-pinned when request bodies became compact JSON: a generation's
#: ``POST /jobs/batch`` is ~10% fewer bytes, so its 201 (the time a push
#: is recorded) comes back sooner while results retire as before —
#: ``me.pop_p50`` 3.999111 -> 3.999255 and ``me.pop_max`` 5.019789 ->
#: 5.019933, nothing else.
#: Re-pinned when a segment became bytes, charged its header plus its
#: length rather than the JSON escape of its text: every HTTP segment is
#: fewer simulated bytes and lands sooner. The last result retires
#: sooner (``me.finished_at`` 5.04255 -> 5.042379); a push's 201, which
#: dates the push, gains more than its results do, so ``me.pop_p50``
#: 3.999255 -> 3.999453 and ``me.pop_max`` 5.019933 -> 5.020045; and
#: ``forecast.abs_error.total`` 0.085843129 -> 0.085442428 follows the
#: changed traffic; nothing else.
SWEEP_SHA = "e790f61c0bf91c9d9e85bb23c5f9177074d70f075e811815e0a8745be48f0e7f"
#: ``... --algo hill --scale 0.5 --duration 240 --seed 7 --kill-at 4
#: --corrupt-first 1``: a gateway restart and a corrupted result.
HILL_ARGS = ["--algo", "hill", "--scale", "0.5", "--duration", "240",
             "--seed", "7", "--kill-at", "4", "--corrupt-first", "1"]
#: Re-pinned with SWEEP_SHA, for the same fields: 14 ``/events`` reads
#: instead of 32 (``gateway.requests`` 35 -> 17), ``me.rounds`` [3.279,
#: 6.266] -> [3.022, 6.044], ``me.finished_at`` 9.252 -> 9.043.
#: Re-pinned with SWEEP_SHA for compact request bodies, for the same
#: reason: ``me.pop_p50`` 2.954424 -> 2.954512 and ``me.pop_max``
#: 2.999739 -> 2.999804, nothing else.
#: Re-pinned with SWEEP_SHA for byte segments, for the same reason:
#: ``me.finished_at`` 9.04295 -> 9.042779, ``me.rounds`` [3.022046,
#: 6.044028] -> [3.021974, 6.043857], ``me.pop_p50`` 2.954512 ->
#: 2.954805 and ``me.pop_max`` 2.999804 -> 2.9999, nothing else.
HILL_SHA = "8fc56c3148f8efdc494ecfa5eb55654645d0a045d04723b7bc05a2084f9ff2c6"


def test_ci_sweep_twin_report_is_pinned_byte_for_byte():
    report = _explore(seed=3, algo="sweep", clients=2, scale=0.4,
                             duration=120.0)
    assert report["violations"] == []
    assert report["driver"]["evals"] == report["driver"]["expected"]
    assert _cli_sha(report) == SWEEP_SHA


def test_ci_hill_twin_report_is_pinned_byte_for_byte():
    """A gateway restart and a corrupted result in the schedule, and
    still not a byte moves."""
    report = _explore(seed=7, algo="hill", clients=2, scale=0.5,
                             duration=240.0, fault_at=4.0, corrupt=1)
    assert report["violations"] == []
    work = report["gateway"]["work"]
    assert work["completed"] == report["me"]["pushed"]
    assert work["results_rejected"] == 1
    assert report["gateway"]["restarts"] == 1
    assert report["driver"]["failed"] == 0   # the ME never saw a bad value
    assert _cli_sha(report) == HILL_SHA


@pytest.mark.parametrize("args,sha", [(SWEEP_ARGS, SWEEP_SHA),
                                      (HILL_ARGS, HILL_SHA)],
                         ids=["sweep", "hill"])
def test_cli_writes_the_pinned_bytes(args, sha, tmp_path, capsys):
    assert main(["explore", "--simulate", *args, "--out",
                 str(tmp_path)]) == 0
    assert "invariants: OK" in capsys.readouterr().out
    data = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == sha

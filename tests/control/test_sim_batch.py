"""One work plane on the twin: any kind, the real client, one runner.

A batch :class:`~repro.control.scenario.Scenario` submits its specs
through the gateway router and runs them on real ``RamseyClient`` +
``KindEngine`` clients; these checks
hold it to the plane's promises — a dead worker's unit comes back
through the scheduler's reap (and says so in its job trace), a forged
result is distrusted and honestly re-run, and a unit no client can load
is reported instead of wedging the client that holds it.
"""

import json

import numpy as np
import pytest

from repro.apps import gnet, pet
from repro.control import Scenario, run_scenario
from repro.control.sim import ForgingEngine, TwinWorld
from repro.core.component import NullRuntime, Send
from repro.core.linguafranca.messages import Message
from repro.core.services.kinds import (KindEngine, MeteredEngine,
                                       ResultCheckError, registry)
from repro.core.services.scheduler import SCH_DIRECTIVE, SCH_REPORT, SCH_WORK
from repro.core.telemetry import Telemetry
from repro.explore.evals import make_eval_spec
from repro.ramsey.client import ModelEngine, RamseyClient
from repro.ramsey.tasks import make_unit

SIZE = 32
ANGLES = [float(a) for a in np.linspace(0, 180, 16, endpoint=False)]


@pytest.fixture(scope="module")
def pet_tasks():
    sino = pet.forward_project(pet.make_phantom(SIZE), ANGLES)
    return pet.make_tasks(sino, ANGLES, SIZE, chunk=4)


def _submit(world, specs):
    status, doc, _ = world.gateway.core.handle(
        "POST", "/jobs/batch", json.dumps({"specs": specs}).encode(), 0.0)
    assert status == 201, doc
    return [world.gateway.work.jobs[job_id] for job_id in doc["ids"]]


def test_killed_workers_unit_is_reaped_and_requeued_in_its_trace(pet_tasks):
    telemetry = Telemetry(trace=True)
    report = run_scenario(Scenario(specs=pet_tasks, clients=3,
                                   victim="client", fault_at=0.1),
                          telemetry=telemetry)
    assert report["violations"] == []
    scheduler = report["gateway"]["scheduler"]
    assert scheduler["reaps"] == 1 and scheduler["units_requeued"] == 1
    assert report["jobs"]["requeues"] == 1   # one orphan, requeued once
    (requeue,) = [span for span in telemetry.tracer.spans
                  if span.name == "job requeue"]
    trace = [span for span in telemetry.tracer.spans
             if span.trace_id == requeue.trace_id]
    # The reap (silence > dead_factor x report_period) did it, after the
    # kill and before the unit's second, finishing execution.
    done = next(span for span in trace if span.name == "job done"
                and span.args["id"] == requeue.args["id"])
    assert 0.1 + 2.0 < requeue.start < done.start
    assert report["workers"]["wrk0"] == 0


def _forged_world(kind, forge):
    """Two clients; the first forges its first result of ``kind``."""
    world = TwinWorld(seed=5, restart_after=None, telemetry=None)
    liar = ForgingEngine(registry.get(kind).engine_factory(), forge)
    world.spawn_client("liar", engines={kind: liar})
    world.spawn_client("honest")
    return world, liar


def test_forged_pet_image_is_rejected_and_rerun_honestly(pet_tasks):
    world, liar = _forged_world(pet.PET_KIND, lambda result: {
        "partial": (np.asarray(result["partial"]) * 1.5).tolist()})
    jobs = _submit(world, pet_tasks)
    world.env.run(until=30.0)
    work = world.gateway.work.stats()
    assert liar.forged == 1
    assert work["results_rejected"] == 1
    assert work["completed"] == len(pet_tasks) == work["state_done"]
    image = pet.Accumulator(SIZE).fold(job.result for job in jobs).image
    serial = pet.Accumulator(SIZE).fold(map(pet.execute_task, pet_tasks))
    assert np.array_equal(image, serial.image)


def test_forged_gnet_counts_are_rejected_and_rerun_honestly():
    tasks = gnet.make_tasks(600, 24, 3, chunk=100)
    world, liar = _forged_world(gnet.GNET_KIND,
                                lambda result: {**result, "n": 1})
    jobs = _submit(world, tasks)
    world.env.run(until=30.0)
    work = world.gateway.work.stats()
    assert liar.forged == 1 and work["results_rejected"] == 1
    assert work["completed"] == len(tasks)
    merger = gnet.CountMerger().fold(job.result for job in jobs)
    assert merger.n_transactions == 600
    assert merger.mine(0.25) == gnet.mine_serial(600, 24, 3, 0.25)


def test_unit_no_client_can_load_is_reported_not_held():
    """A refused unit is a completion carrying the reason: held, it would
    come back on every hello and the queue behind it would never move."""
    world = TwinWorld(seed=1, restart_after=None, telemetry=None)
    world.spawn_client("wrk0")
    bad, good = _submit(world, [{"kind": "nope"}, {
        "k": 8, "n": 4, "heuristic": "tabu", "seed": 1, "ops_budget": 1e5}])
    world.env.run(until=60.0)
    assert bad.state == "done"
    assert "no engine for app kind 'nope'" in bad.result["error"]
    assert good.state == "done"
    assert world.gateway.stats.units_assigned == 2


OVERSIZED = {
    "gnet": {"kind": gnet.GNET_KIND, "seed": 1, "offset": 0,
             "count": 10 ** 9, "n_items": 24},
    "pet": {"kind": pet.PET_KIND, "size": 4096, "angles": [0.0],
            "projections": [[0.0] * 4096]},
    "pet-malformed": {"kind": pet.PET_KIND, "size": 8},
    "explore-malformed": {"kind": "explore.eval", "fn": "nope",
                          "params": {"x": 1.0}, "seed": 1, "ops_budget": 1.0},
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_a_spec_no_client_may_run_ends_refused_and_is_never_recomputed(
        name, monkeypatch):
    """A bounded kind's oversized or malformed spec, posted from outside:
    the client refuses it before paying for it, and the gateway's check
    accepts the refusal without re-executing the spec itself."""
    recomputed = []
    for app in (gnet, pet):
        monkeypatch.setattr(app, "execute_task", recomputed.append)
    world = TwinWorld(seed=2, restart_after=None, telemetry=None)
    client = world.spawn_client("wrk0")
    status, doc, _ = world.gateway.core.handle(
        "POST", "/jobs", json.dumps(OVERSIZED[name]).encode(), 0.0)
    assert status == 201, doc
    world.env.run(until=5.0)
    job = world.gateway.work.get(doc["id"])
    assert job.state == "done" and "error" in job.result
    assert world.gateway.work.results_rejected == 0
    assert recomputed == [] and client.units_done == 0


def test_a_refusal_of_a_runnable_spec_is_distrusted(pet_tasks):
    """Refusing is not a way to skip work: for a spec the kind can run,
    ``{"error": ...}`` fails the §3.1 check like any forged result."""
    for spec in (pet_tasks[0], gnet.make_tasks(100, 24, 1)[0],
                 make_eval_spec("sphere", {"x": 0.5}, seed=1)):
        with pytest.raises(ResultCheckError):
            registry.checker_for(spec)(spec, {"error": "busy"})


def test_a_drained_queue_clears_the_finished_units_done_flag():
    """After a unit finishes and the directive brings no new one, the
    next periodic report must not claim a completion again: it would
    free whatever unit the scheduler hands this client meanwhile."""
    client = RamseyClient("c", ["s/sch"], KindEngine(
        engines={"ramsey": ModelEngine()}), report_period=1.0)
    client.bind_runtime(NullRuntime("c/cli", speed=1e6))
    client.on_start(0.0)
    unit = make_unit("u1", 8, 4, ops_budget=1e5)
    client.on_message(Message(mtype=SCH_WORK, sender="s/sch",
                              body={"unit": unit}), 0.0)
    client.on_timer("cli:work", 1.0)
    (done,) = [e for e in client.on_timer("cli:report", 1.0)
               if isinstance(e, Send) and e.message.mtype == SCH_REPORT]
    assert done.message.body["done"] and done.message.body["unit_id"] == "u1"
    client.on_message(Message(mtype=SCH_DIRECTIVE, sender="s/sch",
                              body={"action": "new_work", "unit": None}), 1.1)
    (idle,) = [e for e in client.on_timer("cli:report", 2.0)
               if isinstance(e, Send) and e.message.mtype == SCH_REPORT]
    assert idle.message.body["done"] is False
    assert idle.message.body["unit_id"] is None
    assert client.units_done == 1


def test_metered_engine_charges_the_price_then_executes_once():
    calls = []
    engine = MeteredEngine(lambda unit: calls.append(unit) or {"x": 2},
                           cost=lambda unit: 1000.0)
    engine.load({"kind": "demo.x"})
    assert not engine.advance(600.0).done and engine.result() is None
    assert engine.advance(400.0).done and engine.advance(10.0).done
    assert engine.result() == {"x": 2} and len(calls) == 1
    assert engine.progress() == {"kind": "demo.x", "ops": 1010.0}


def test_a_refused_batch_raises():
    with pytest.raises(ValueError, match="may not carry 'id'"):
        run_scenario(Scenario(specs=[{"kind": "pet.backproject",
                                      "id": "mine"}]))

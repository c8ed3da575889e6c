"""What a fresh process loads, and what it distrusts (DESIGN §11).

Package ``__init__`` modules declare their exports and never import
them, so a process loads only the plane it runs. These checks need a
fresh interpreter each: the pytest process has imported everything.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.apps import gnet, pet
from repro.explore.evals import evaluate

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: Exactly the imports of ``benchmarks/e2e/gateway_child.py``.
GATEWAY_IMPORTS = """
from repro.control import (FileJournal, GatewayCore, HttpDecoder,
                           HttpServer, WorkQueue, json_response,
                           render_payload)
from repro.core.linguafranca.tcp import EventLoop
from repro.core.services.kinds import KindRegistry, registry
from repro.explore import engine as _engine
from repro.explore.evals import execute_unit
"""

#: Planes a gateway never runs, so never loads.
NOT_IN_A_GATEWAY = ("numpy", "repro.simgrid", "repro.live", "repro.ramsey",
                    "repro.experiments", "repro.control.sim",
                    "repro.control.scenario")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it leaves its answer in ``out``.
    Returns ``out`` plus the sorted names in ``sys.modules``."""
    script = ("import json, sys\nout = {}\n" + code
              + "\nout['modules'] = sorted(sys.modules)\nprint(json.dumps(out))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_under(modules, *packages):
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)]


def test_gateway_child_loads_only_the_control_plane():
    modules = run_fresh(GATEWAY_IMPORTS)["modules"]
    assert loaded_under(modules, *NOT_IN_A_GATEWAY) == []
    assert len(loaded_under(modules, "repro")) <= 25


def test_gateway_role_live_node_loads_only_its_role(tmp_path):
    """A whole ``repro live-node`` for a gateway: manifest, component,
    NetDriver, HTTP listener, a short run and the drain."""
    manifest = tmp_path / "manifest.json"
    out = run_fresh(f"""
from repro.live import build_manifest, serve_topology
path = build_manifest(serve_topology(clients=1),
                      collector="127.0.0.1:9").write({str(manifest)!r})
from repro.live.node import run_node
out["exit"] = run_node(path, "gw0", deadline=0.2)
""")
    assert out["exit"] == 0
    modules = out["modules"]
    assert loaded_under(modules, "numpy", "repro.ramsey", "repro.core.gossip",
                        "repro.simgrid") == []
    assert len(loaded_under(modules, "repro")) <= 35


def test_api_gateway_names_load_only_the_control_plane():
    code = "from repro.api import WorkQueue, GatewayCore, HttpServer"
    modules = run_fresh(code)["modules"]
    assert loaded_under(modules, *NOT_IN_A_GATEWAY) == []


def test_api_core_names_load_no_other_plane():
    modules = run_fresh("from repro.api import Message, Telemetry")["modules"]
    assert loaded_under(modules, "repro.control", "repro.live") == []
    # ... nor the simulator or the application beneath them.
    assert loaded_under(modules, "numpy", "repro.simgrid",
                        "repro.ramsey") == []


EVAL_SPEC = {"kind": "explore.eval", "fn": "sphere", "params": {"x": 0.25},
             "seed": 3, "ops_budget": 100.0}
RAMSEY_SPEC = {"k": 8, "n": 4, "heuristic": "tabu", "seed": 1,
               "ops_budget": 1e6}
#: Claims a counter-example (best_energy 0) that does not verify.
RAMSEY_BOGUS = {"progress": {"best_energy": 0, "best_coloring": "00"}}
PET_SPEC = {"kind": "pet.backproject", "size": 4, "angles": [0.0, 45.0],
            "projections": [[1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 1.0, 0.0]]}
#: A blank partial image where the backprojection has structure.
PET_BOGUS = {"partial": [[0.0] * 4] * 4}
GNET_SPEC = {"kind": "gnet.count", "seed": 3, "offset": 0, "count": 40,
             "n_items": 24}
#: Counts for a partition that was never read.
GNET_BOGUS = {"singles": {}, "pairs": {}, "n": 40}

#: Every kind's result goes bogus first, then all but the Ramsey one come
#: back honest: four rejections (each requeued), three acceptances.
DISTRUST = f"""
from repro.control.workqueue import WorkQueue
work = WorkQueue()
jobs = [work.submit(spec, now=0.0) for spec in
        ({EVAL_SPEC!r}, {RAMSEY_SPEC!r}, {PET_SPEC!r}, {GNET_SPEC!r})]
for _ in jobs:
    work.next_unit()
for job, bogus in zip(jobs, ({{"value": -1.0, "digest": "forged"}},
                             {RAMSEY_BOGUS!r}, {PET_BOGUS!r}, {GNET_BOGUS!r})):
    work.complete(job.id, bogus, now=1.0)
out["after_bogus"] = [job.state for job in jobs] + [len(work)]
for _ in jobs:
    work.next_unit()
for job, honest in zip((jobs[0], jobs[2], jobs[3]),
                       ({evaluate(EVAL_SPEC)!r}, {pet.execute_task(PET_SPEC)!r},
                        {gnet.execute_task(GNET_SPEC)!r})):
    work.complete(job.id, honest, now=2.0)
out["stats"] = work.stats()
out["final"] = [job.state for job in jobs]
"""


@pytest.mark.parametrize("setup", [
    "",                               # only repro.control.workqueue
    "from repro.live import run_node",  # the ``repro live-node`` path
], ids=["workqueue-only", "live-node"])
def test_fresh_process_distrusts_every_shipped_kind(setup):
    out = run_fresh(setup + "\n" + DISTRUST)
    assert out["after_bogus"] == ["queued"] * 4 + [4]
    assert out["stats"]["results_rejected"] == 4
    assert out["stats"]["completed"] == 3
    assert out["final"] == ["done", "assigned", "done", "done"]


def test_unknown_kind_is_admitted_unchecked_and_imports_nothing():
    out = run_fresh("""
from repro.control.workqueue import WorkQueue
work = WorkQueue()
job = work.submit({"kind": "bench.inert", "n": 1}, now=0.0)
work.next_unit()
work.complete(job.id, {"inert": True}, now=1.0)
out["state"] = job.state
""")
    assert out["state"] == "done"
    assert loaded_under(out["modules"], "repro.ramsey", "repro.explore") == []

"""One simulation model: every loop in ``src/`` is a chain of engine
callback entries (``Environment.call`` / ``Environment.start``), and the
generator machinery only processes needed — interrupts, conditions,
gates, bounded stores, generator guests — is gone. ``Process`` and the
mailbox survive only for the end-to-end benchmark's ladder."""

import ast
import inspect
import pathlib

from repro.simgrid import engine, resources
from repro.simgrid.engine import Environment, Process
from repro.simgrid.host import Host
from repro.simgrid.resources import Store

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
LADDER = ROOT / "benchmarks" / "e2e" / "ladder.py"

#: What the generator model keeps, and the ladder call that keeps it.
#: ROADMAP item 1 moves the ladder's engine_event, store_getput, net_send
#: and endpoint_roundtrip rungs; these go with them.
KEPT_FOR_LADDER = {
    "Environment.process, Process, Initialize": "env.process(",
    "Store.put": "store.put(",
    "Store.get": "store.get()",
    "Network.bind's default mailbox": "box = net.bind(dst)",
    "SimEndpoint.recv and get_with_timeout": "server.recv(",
    "SimEndpoint.request": "client.request(",
}


def _process_calls(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "process"):
            yield node.lineno


def test_nothing_in_src_starts_a_generator_process():
    sites = [f"{path.relative_to(SRC).as_posix()}:{line}"
             for path in sorted(SRC.rglob("*.py"))
             for line in _process_calls(path)]
    assert sites == []


def test_the_generator_only_machinery_is_gone():
    gone = [f"engine.{name}" for name in
            ("Interrupt", "Condition", "AnyOf", "AllOf")
            if hasattr(engine, name)]
    gone += [f"resources.{name}" for name in ("Gate", "StorePut")
             if hasattr(resources, name)]
    gone += [f"Environment.{name}" for name in
             ("active_process", "_active_process", "event", "any_of",
              "all_of") if hasattr(Environment, name)]
    gone += [f"Process.{name}" for name in
             ("interrupt", "_deliver_interrupt", "target")
             if hasattr(Process, name)]
    gone += [f"Host.{name}" for name in ("spawn", "guest_names")
             if hasattr(Host, name)]
    if "capacity" in inspect.signature(Store).parameters:
        gone.append("Store(capacity=)")
    assert gone == []


def test_a_small_sc98_world_runs_without_a_process(monkeypatch):
    from repro.experiments.sc98 import SC98Config, build_sc98

    started = []
    init = Process.__init__

    def counting(self, env, generator):
        started.append(generator.__qualname__)
        init(self, env, generator)

    monkeypatch.setattr(Process, "__init__", counting)
    world = build_sc98(SC98Config(scale=0.02, seed=1998, duration=1800.0))
    world.run()
    assert world.env.now == 1800.0
    assert started == []


def test_what_the_generator_model_keeps_the_ladder_still_calls():
    ladder = LADDER.read_text(encoding="utf-8")
    unused = [name for name, call in KEPT_FOR_LADDER.items()
              if call not in ladder]
    assert unused == [], (
        f"benchmarks/e2e/ladder.py no longer calls {unused}: they were kept "
        "only for its rungs, and ROADMAP item 1 deletes them once "
        "ladder.py stops calling them")

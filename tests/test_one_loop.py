"""One engine run loop: ``Environment.run`` has no observed twin, and
handler timing rides the world's ``Telemetry`` on both planes instead of
a setting on the engine. The compute pool is consumed synchronously, so
nothing harvests it between events."""

import ast
import inspect
import pathlib

from repro.parallel import pool
from repro.simgrid.engine import Environment

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def test_environment_has_no_loop_settings():
    assert not {"profiler", "drain_hook"} & set(Environment.__slots__)
    assert not hasattr(Environment, "_run_observed")


def test_environment_has_exactly_one_run_loop():
    tree = ast.parse(inspect.getsource(Environment))
    loops = [node.name for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and any(isinstance(inner, ast.While)
                     for inner in ast.walk(node))]
    assert len(loops) == 1, loops


def test_no_lane_class_defines_drain():
    classes = [cls for _, cls in inspect.getmembers(pool, inspect.isclass)
               if cls.__module__ == pool.__name__]
    assert [cls.__name__ for cls in classes] == ["KernelPool"]
    assert [cls.__name__ for cls in classes if "drain" in vars(cls)] == []


def _engine_settings(path):
    """(line, target) of every assignment to ``<x>.drain_hook`` or to an
    engine's ``profiler`` (``env.profiler``, ``world.env.profiler``)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not isinstance(target, ast.Attribute):
                continue
            owner = ast.unparse(target.value)
            if target.attr == "drain_hook" or (
                    target.attr == "profiler"
                    and owner.split(".")[-1] in ("env", "_env", "environment")):
                yield node.lineno, ast.unparse(target)


def test_nothing_in_src_sets_a_loop_hook_on_the_engine():
    sites = [f"{path.relative_to(SRC).as_posix()}:{line} {target}"
             for path in sorted(SRC.rglob("*.py"))
             for line, target in _engine_settings(path)]
    assert sites == []

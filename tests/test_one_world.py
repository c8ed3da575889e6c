"""One construction site: every simulated world in ``src/`` is laid out
on :class:`repro.core.simdriver.SimWorld`, the only module that builds an
engine, a network or the seeded RNG streams."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
BUILT_ONCE = {"Environment", "Network", "RngStreams"}


def _constructions(path):
    """(name, line) of every call to a BUILT_ONCE class — parsed, so a
    docstring's ``>>> env = Environment()`` does not count."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in BUILT_ONCE:
            yield name, node.lineno


def test_engine_network_and_streams_are_built_only_by_simworld():
    sites = [f"{path.relative_to(SRC)}:{line} {name}"
             for path in sorted(SRC.rglob("*.py"))
             for name, line in _constructions(path)]
    assert {site.split(" ")[1] for site in sites} == BUILT_ONCE
    assert [s for s in sites if not s.startswith("core/simdriver.py:")] == []


def test_there_is_one_module_named_scenario():
    assert not (SRC / "experiments" / "scenario.py").exists()
    assert [p.relative_to(SRC).as_posix()
            for p in SRC.rglob("scenario.py")] == ["control/scenario.py"]

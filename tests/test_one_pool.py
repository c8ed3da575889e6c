"""One compute pool: :class:`repro.parallel.KernelPool` is the only way a
kernel task runs — inline at zero workers, on forked workers otherwise —
and tasks cross its pipes pickled, with no shared-memory side channel."""

import ast
import importlib.util
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: Callees that start (or wrap something that starts) an OS process.
PROCESS_STARTERS = {"Process", "Popen", "Pool", "ProcessPoolExecutor",
                    "fork", "KernelPool"}


def _imported_modules(path):
    """Dotted names of every module (and ``from`` member) ``path`` imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _importers(predicate):
    return sorted({path.relative_to(SRC).as_posix()
                   for path in SRC.rglob("*.py")
                   for name in _imported_modules(path) if predicate(name)})


def test_only_the_pool_imports_multiprocessing():
    assert _importers(lambda name: name.split(".")[0] == "multiprocessing") \
        == ["parallel/pool.py"]


def test_nothing_imports_shared_memory():
    assert _importers(lambda name: "shared_memory" in name.split(".")) == []


def test_parallel_has_no_lanes_or_shm_module():
    for name in ("lanes", "shm"):
        assert importlib.util.find_spec(f"repro.parallel.{name}") is None


def test_kernel_pool_is_the_only_class_that_starts_processes():
    starters = []
    for path in sorted((SRC / "parallel").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            calls = {node.func.attr if isinstance(node.func, ast.Attribute)
                     else getattr(node.func, "id", None)
                     for node in ast.walk(cls) if isinstance(node, ast.Call)}
            if calls & PROCESS_STARTERS:
                starters.append(cls.name)
    assert starters == ["KernelPool"]

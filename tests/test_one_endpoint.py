"""One lingua-franca endpoint: every process that speaks the lingua
franca on real sockets does it through
:class:`repro.core.netdriver.NetDriver`, so each endpoint gets the
driver's robustness boundary, ``msg.recv`` counters and tracing. Only
the driver builds a listener or an outbound sender, and only the driver
and the transport module build a reactor."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
BUILDERS = {
    "TcpServer": {"core/netdriver.py"},
    "AsyncSender": {"core/netdriver.py"},
    "EventLoop": {"core/netdriver.py", "core/linguafranca/tcp.py"},
}


def _constructions(path):
    """Names of the BUILDERS classes ``path`` calls — parsed, so a
    docstring that mentions one does not count."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in BUILDERS:
                yield name


def test_only_the_net_driver_builds_lingua_franca_endpoints():
    sites: dict[str, set] = {name: set() for name in BUILDERS}
    for path in sorted(SRC.rglob("*.py")):
        for name in _constructions(path):
            sites[name].add(path.relative_to(SRC).as_posix())
    # Equal, not a subset: each class is still built where it must be.
    assert sites == BUILDERS

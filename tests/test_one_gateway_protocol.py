"""One gateway protocol: the twin speaks the live gateway's HTTP.

The simulated twin carries HTTP/1.1 bytes in its segments and answers
them through the gateway's one app, :func:`repro.control.gateway.
http_app`; there is no second, message-shaped protocol for the twin,
and no twin-only client for a user or for the ME pump. And one class is
the gateway on both planes: the live gateway node runs the twin's
:class:`~repro.control.component.GatewayComponent` under ``NetDriver``,
so no server of its own parks or re-offers a long-poll.
"""

import ast
import importlib.util
import pathlib

import repro.api as api

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
GONE = ("GW_REQ", "GW_RES", "SimJobUser", "MEDriverComponent",
        "poll_parked", "_attach_gateway", "decoder_factory")
#: Who still builds the listener with a server of its own: the
#: benchmarks' gateway children. ROADMAP items 1 and 2 move them onto
#: the component, and then ``HttpServer`` goes.
KEPT_FOR_BENCHMARKS = {"HttpServer": ("benchmarks/common.py",
                                      "benchmarks/e2e/gateway_child.py")}


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text(
            encoding="utf-8")


def test_no_message_shaped_gateway_protocol_is_left():
    left = [f"{name}: {word}" for name, text in _sources()
            for word in GONE if word in text]
    assert left == []


def test_the_twin_only_clients_are_gone_from_the_api():
    assert importlib.util.find_spec("repro.explore.sim") is None
    assert not set(GONE) & set(api.surface()["names"])


def _handle_callers(tree):
    """Name of the function around each ``<x>.handle(...)`` call."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, owner or child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "handle"):
                yield owner
            yield from walk(child, owner)
    return walk(tree, None)


def test_only_the_one_app_routes_a_request():
    callers = sorted({f"{name}:{owner}" for name, text in _sources()
                      for owner in _handle_callers(ast.parse(text))})
    assert callers == ["control/gateway.py:http_app"]


def _constructs(tree, name):
    return any(isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None))
               == name for node in ast.walk(tree))


def test_one_class_is_the_gateway_on_both_planes():
    from repro.control.component import GatewayComponent
    from repro.control.sim import TwinWorld
    from repro.live import build_manifest, serve_topology
    from repro.live.node import build_component

    manifest = build_manifest(serve_topology(clients=1),
                              collector="127.0.0.1:9")
    live = build_component(manifest, "gw0")
    twin = TwinWorld(seed=1, restart_after=None, telemetry=None).gateway
    assert type(live) is type(twin) is GatewayComponent


def test_only_the_benchmark_children_build_a_server_of_their_own():
    for name, keepers in KEPT_FOR_BENCHMARKS.items():
        builders = [path.relative_to(ROOT).as_posix()
                    for path in sorted([*SRC.rglob("*.py"),
                                        *(ROOT / "benchmarks").rglob("*.py")])
                    if _constructs(ast.parse(path.read_text(
                        encoding="utf-8")), name)]
        assert builders == sorted(keepers)

"""One gateway protocol: the twin speaks the live gateway's HTTP.

The simulated twin carries HTTP/1.1 bytes in its segments and answers
them through the gateway's one app, :func:`repro.control.gateway.
http_app`; there is no second, message-shaped protocol for the twin,
and no twin-only client for a user or for the ME pump.
"""

import ast
import importlib.util
import pathlib

import repro.api as api

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
GONE = ("GW_REQ", "GW_RES", "SimJobUser", "MEDriverComponent")


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

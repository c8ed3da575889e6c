"""One gateway protocol: the twin speaks the live gateway's HTTP.

The simulated twin carries HTTP/1.1 bytes in its segments and answers
them through the gateway's one app, :func:`repro.control.gateway.
http_app`; there is no second, message-shaped protocol for the twin,
and no twin-only client for a user or for the ME pump. And one class is
the gateway on both planes: the live gateway node runs the twin's
:class:`~repro.control.component.GatewayComponent` under ``NetDriver``,
so no server of its own parks or re-offers a long-poll. On the client
side, one :class:`~repro.control.http.HttpClientConnection` is every
client's connection — a storm user's, the ME pump's, the blocking
client's — on a socket or in simulated segments: the standard library's
``http.client`` has no place in ``src/``.
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
#: end-to-end benchmark's gateway child. ROADMAP item 1 moves it onto
#: the component, and then ``HttpServer`` goes.
KEPT_FOR_BENCHMARKS = {"HttpServer": ("benchmarks/e2e/gateway_child.py",)}


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


def _callers(tree, attr):
    """Name of the function around each ``<x>.<attr>(...)`` call."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, owner or child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == attr):
                yield owner
            yield from walk(child, owner)
    return walk(tree, None)


def _all_callers(attr):
    return sorted({f"{name}:{owner}" for name, text in _sources()
                   for owner in _callers(ast.parse(text), attr)})


def test_only_the_one_app_routes_a_request():
    """A request is answered by ``GatewayCore.dispatch``: through the one
    app, or through ``handle`` (what benchmarks and tests call), and
    nothing in ``src/`` calls ``handle``."""
    assert _all_callers("handle") == []
    assert _all_callers("dispatch") == ["control/gateway.py:handle",
                                        "control/gateway.py:http_app"]


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


#: ``repro.api`` at 170 names, and each deliberate change since: the
#: one client connection joined the control layer.
API_ADDED = {"HttpClientConnection"}
API_REMOVED: set = set()


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_the_stdlib_http_client():
    users = [name for name, text in _sources()
             if "http.client" in _imports(ast.parse(text))]
    assert users == []


def _decoder_owners(tree):
    """The top-level class or function around each
    ``HttpResponseDecoder(...)`` call (``<module>`` outside any)."""
    for top in tree.body:
        if _constructs(top, "HttpResponseDecoder"):
            yield getattr(top, "name", "<module>")


def test_the_client_connection_alone_reads_responses():
    owners = sorted({f"{name}:{owner}" for name, text in _sources()
                     for owner in _decoder_owners(ast.parse(text))})
    assert owners == ["control/http.py:HttpClientConnection"]


def test_the_api_changed_only_as_listed():
    names = set(api.surface()["names"])
    assert API_ADDED <= names and not API_REMOVED & names
    assert len(names) == 170 + len(API_ADDED) - len(API_REMOVED)
    assert "HttpClientConnection" in api.surface()["layers"]["control"]


# -- one route table ----------------------------------------------------------
#: Every method a client of the gateway sends, and one it never does.
METHODS = ("GET", "POST", "PUT", "DELETE")


def _core():
    from repro.control import GatewayCore, WorkQueue

    core = GatewayCore("gw-guard", WorkQueue(prefix="g"))
    core.handle("POST", "/jobs", b"{}", now=0.0)  # job g-1, for {id}
    return core


def test_each_route_answers_under_its_own_label():
    from repro.control.gateway import ROUTES

    core = _core()
    for label in ROUTES:
        method, template = label.split(" ")
        path = template.replace("{id}", "g-1")
        body = b"{}" if method == "POST" else b""
        status, _, route = core.handle(method, path, body, now=1.0)
        assert status != 404 and route == label, label


def test_a_known_path_asked_with_another_method_is_405():
    from repro.control.gateway import ROUTES

    core = _core()
    allowed: dict = {}
    for label in ROUTES:
        method, template = label.split(" ")
        allowed.setdefault(template, set()).add(method)
    for template, methods in allowed.items():
        path = template.replace("{id}", "g-1")
        for method in set(METHODS) - methods:
            status, _, route = core.handle(method, path, b"", now=1.0)
            assert (status, route) == (405, template), (method, path)


def _path_literals(node):
    """The ``"/…"`` string constants in ``node``, nested ones included."""
    return [sub.value for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            and sub.value.startswith("/")]


def test_the_table_is_the_only_place_a_route_is_named():
    """No path is compared with a literal outside the route table: not
    with ``==``/``in``, nor with ``startswith``/``endswith``."""
    tree = ast.parse((SRC / "control/gateway.py").read_text(
        encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            found += _path_literals(node)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("startswith", "endswith")):
            found += _path_literals(node)
    assert found == []


def test_the_module_docstring_lists_the_routes():
    import re

    import repro.control.gateway as gateway

    listed = [f"{method} {path}" for method, path in re.findall(
        r"^    (GET|POST|PUT|DELETE) +(/\S*)", gateway.__doc__, re.M)]
    assert listed == list(gateway.ROUTES)


# -- a segment is bytes -------------------------------------------------------
#: The modules a segment passes through on either plane.
SEGMENT_PATH = ("core/component.py", "core/netdriver.py",
                "control/component.py", "control/sim.py")


def test_no_stream_byte_is_turned_into_text_on_either_plane():
    left = [name for name in SEGMENT_PATH
            if "latin-1" in (SRC / name).read_text(encoding="utf-8")]
    assert left == []


def test_sizing_a_segment_renders_no_json(monkeypatch):
    import repro.core.linguafranca.messages as messages
    from repro.core.component import segment

    calls = []
    render = messages._render

    def counted(value):
        calls.append(value)
        return render(value)

    monkeypatch.setattr(messages, "_render", counted)
    data = bytes(range(256)) * 40   # 10 kB, escapes and all
    for fin in (False, True):
        size = segment("gw0/gw", data, fin=fin).wire_size()
        assert size == segment("gw0/gw", b"", fin=fin).wire_size() + len(data)
    assert calls == []

"""One JSON renderer: nothing builds an encoder per call.

``json.dumps`` with any non-default argument builds a ``JSONEncoder``
per call, and ``JSONEncoder.encode`` a C encoder per call. The codec
(``core/linguafranca/messages.py``) builds the program's two compact
encoders at import, the wire's and the record log's (DESIGN §7
"Lingua-franca codec"), and every compact text and byte count of a JSON
value goes through them. So an evaluation's digest payload and every
request body the gateway client sends cost their content, not an encoder
(DESIGN §16), and a sizer counts the bytes the wire would carry.
Human-readable ``indent=`` output (the CLI, the claims, the exports) is
not compact and may still call ``json.dumps``.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))


def _calls(path, names):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Attribute, ast.Name))
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in names]


def _dumps_calls(path):
    return [f"{node.lineno}: {ast.unparse(node)}"
            for node in _calls(path, ("dumps", "JSONEncoder"))]


@pytest.mark.parametrize("module", ["explore/evals.py", "control/client.py",
                                    "control/http.py"])
def test_no_per_call_encoder_on_the_explore_round_trip(module):
    assert _dumps_calls(SRC / module) == []


def test_one_module_builds_a_json_encoder():
    building = sorted(str(path.relative_to(SRC)) for path in MODULES
                      if _calls(path, ("JSONEncoder", "c_make_encoder")))
    assert building == ["core/linguafranca/messages.py"]


def test_no_dumps_call_renders_compact_json():
    compact = [f"{path.relative_to(SRC)}:{node.lineno}: {ast.unparse(node)}"
               for path in MODULES for node in _calls(path, ("dump", "dumps"))
               if any(kw.arg == "separators" for kw in node.keywords)]
    assert compact == []

"""One encoder on the explore round trip: nothing builds one per call.

``json.dumps`` with any non-default argument builds a ``JSONEncoder``
per call, and ``JSONEncoder.encode`` a C encoder per call. An
evaluation's digest payload and every request body the gateway client
sends go through an encoder built once at import (DESIGN §16), so the
§3.1 re-evaluation costs the objective's math, not an encoder.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _dumps_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Attribute, ast.Name))
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("dumps", "JSONEncoder")]


@pytest.mark.parametrize("module", ["explore/evals.py", "control/client.py",
                                    "control/http.py"])
def test_no_per_call_encoder_on_the_explore_round_trip(module):
    assert _dumps_calls(SRC / module) == []

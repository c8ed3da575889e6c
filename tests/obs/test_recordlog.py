"""The two prebuilt JSON encoders: record-log lines and JSON responses are
``json.dumps(value, sort_keys=True, separators=(",", ":"))`` to the byte,
and the wire's text ``json.dumps(value, separators=(",", ":"))``, with
json's C accelerator and without it."""

import importlib.util
import json
import json.encoder
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import json_response
from repro.core.linguafranca import messages
from repro.obs import recordlog
from repro.obs.recordlog import encode_line

_SCALARS = (st.none() | st.booleans()
            | st.integers(-2**200, 2**200)
            | st.floats()  # NaN, +-inf and -0.0 included
            | st.sampled_from([-0.0, float("nan"), float("inf"),
                               float("-inf"), 10**100])
            | st.text())   # non-ASCII and astral code points included
_VALUES = st.recursive(
    _SCALARS, lambda kids: (st.lists(kids, max_size=4)
                            | st.dictionaries(st.text(max_size=6), kids,
                                              max_size=4)),
    max_leaves=20)
_RECORDS = st.dictionaries(st.text(max_size=6), _VALUES, max_size=5)


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def pure():
    """``(recordlog, codec)`` loaded afresh while json has no C encoder:
    the codec builds both encoders, so recordlog is loaded over it."""
    loaded = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json.encoder, "c_make_encoder", None)
        for name, module in (("repro.core.linguafranca.messages", messages),
                             ("repro.obs.recordlog", recordlog)):
            spec = importlib.util.spec_from_file_location(name,
                                                          module.__file__)
            loaded[name] = importlib.util.module_from_spec(spec)
            patch.setitem(sys.modules, name, loaded[name])
            spec.loader.exec_module(loaded[name])
    codec = loaded["repro.core.linguafranca.messages"]
    for encoder in (codec._wire_encoder, codec._sorted_encoder):
        assert encoder.__self__.__class__ is json.JSONEncoder
    return loaded["repro.obs.recordlog"], codec


@given(record=_RECORDS)
@settings(max_examples=300, deadline=None)
def test_lines_and_json_bodies_are_json_dumps_to_the_byte(pure, record):
    expected = _dumps(record)
    assert encode_line(record) == expected + "\n"
    assert pure[0].encode_line(record) == expected + "\n"
    frame = json_response(200, record)
    assert frame.partition(b"\r\n\r\n")[2] == expected.encode() + b"\n"


@given(value=_VALUES)
@settings(max_examples=200, deadline=None)
def test_any_json_value_encodes_as_json_dumps(pure, value):
    log, codec = pure
    assert recordlog._encode(value) == _dumps(value) == log._encode(value)
    compact = json.dumps(value, separators=(",", ":"))
    assert messages._json(value) == compact == codec._json(value)

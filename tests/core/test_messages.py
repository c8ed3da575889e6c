"""Tests for typed messages and the type registry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.linguafranca.messages import (
    Message,
    MessageError,
    TypeRegistry,
    fresh_req_id,
)


def test_message_roundtrip():
    m = Message(mtype="REPORT", sender="h1/client", body={"rate": 1.5, "n": [1, 2]})
    out = Message.decode(m.encode())
    assert out.mtype == "REPORT"
    assert out.sender == "h1/client"
    assert out.body == {"rate": 1.5, "n": [1, 2]}
    assert out.req_id is None and out.reply_to is None


def test_message_roundtrip_with_correlation():
    m = Message(mtype="Q", sender="a/b", req_id=7, reply_to=3)
    out = Message.decode(m.encode())
    assert out.req_id == 7
    assert out.reply_to == 3


def test_reply_correlates():
    req = Message(mtype="GET", sender="cli/1", req_id=fresh_req_id())
    rep = req.reply("GET_OK", sender="srv/1", body={"v": 1})
    assert rep.reply_to == req.req_id
    assert rep.mtype == "GET_OK"
    assert rep.body == {"v": 1}


def test_fresh_req_ids_unique():
    ids = {fresh_req_id() for _ in range(100)}
    assert len(ids) == 100


def test_unserializable_body_rejected():
    m = Message(mtype="X", sender="a/b", body={"bad": object()})
    with pytest.raises(MessageError):
        m.encode()


def test_decode_rejects_non_dict_body():
    import json

    from repro.core.linguafranca.packets import encode_packet

    payload = json.dumps({"s": "a/b", "b": [1, 2]}).encode()
    with pytest.raises(MessageError, match="body must be an object"):
        Message.from_parts("X", payload)


def test_decode_rejects_missing_fields():
    from repro.core.linguafranca.packets import encode_packet

    with pytest.raises(MessageError):
        Message.from_parts("X", b'{"only": 1}')


def test_decode_rejects_non_json():
    with pytest.raises(MessageError):
        Message.from_parts("X", b"\xff\xfe not json")


def test_from_parts_accepts_memoryview_payload():
    original = Message(mtype="REPORT", sender="a/b", body={"x": 1},
                       req_id=7)
    wire = original.encode()
    via_bytes = Message.decode(wire)
    import json

    record = json.dumps({"s": "a/b", "b": {"x": 1}, "q": 7}).encode()
    via_view = Message.from_parts("REPORT", memoryview(record))
    assert via_bytes == via_view == original


def test_from_parts_rejects_bad_utf8_in_view():
    with pytest.raises(MessageError):
        Message.from_parts("X", memoryview(b"\xff\xfe not json"))


def test_registry_validates():
    reg = TypeRegistry()

    def check_report(body):
        if "rate" not in body:
            raise ValueError("missing rate")

    reg.register("REPORT", check_report)
    reg.register("PING")
    assert reg.known("REPORT")
    assert not reg.known("NOPE")
    reg.validate(Message(mtype="REPORT", sender="a/b", body={"rate": 1}))
    reg.validate(Message(mtype="PING", sender="a/b"))
    with pytest.raises(MessageError, match="invalid"):
        reg.validate(Message(mtype="REPORT", sender="a/b", body={}))
    with pytest.raises(MessageError, match="unknown"):
        reg.validate(Message(mtype="NOPE", sender="a/b"))


def test_registry_duplicate_rejected():
    reg = TypeRegistry()
    reg.register("A")
    with pytest.raises(MessageError):
        reg.register("A")
    assert reg.types() == ["A"]


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


@given(body=st.dictionaries(st.text(max_size=10), json_values, max_size=6))
def test_property_message_body_roundtrip(body):
    m = Message(mtype="T", sender="h/p", body=body)
    assert Message.decode(m.encode()).body == body


# -- one frame per message (DESIGN §7) --------------------------------------

def test_encode_follows_every_header_field_a_transport_stamps():
    m = Message(mtype="T", sender="", body={"n": [1, 2]})
    first = m.encode()
    assert m.encode() is first  # kept, not rebuilt
    for name, value in (("sender", "a/b"), ("req_id", 7), ("reply_to", 3),
                        ("trace", (11, 12))):
        setattr(m, name, value)
        fresh = Message(mtype=m.mtype, sender=m.sender, body=m.body,
                        req_id=m.req_id, reply_to=m.reply_to, trace=m.trace)
        assert m.encode() == fresh.encode(), name
        assert Message.decode(m.encode()) == m


def test_the_kept_frame_is_invisible_to_fields_eq_repr_copy_and_pickle():
    import copy
    import dataclasses
    import pickle

    def fresh():
        return Message(mtype="T", sender="a/b", body={"n": [1]}, req_id=4)

    encoded = fresh()
    encoded.encode()
    assert [f.name for f in dataclasses.fields(Message)] == [
        "mtype", "sender", "body", "req_id", "reply_to", "trace"]
    assert encoded == fresh() and repr(encoded) == repr(fresh())
    assert pickle.dumps(encoded) == pickle.dumps(fresh())
    assert pickle.loads(pickle.dumps(encoded)) == fresh()
    clone = copy.copy(encoded)
    assert clone == encoded and clone.body is encoded.body
    clone.req_id = 5  # a copy re-stamped encodes its own header
    assert Message.decode(clone.encode()).req_id == 5

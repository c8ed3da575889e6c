"""Tests for typed messages."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.linguafranca.messages import (
    Message,
    MessageError,
    fresh_req_id,
)
from repro.core.linguafranca.packets import PacketError


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
        assert m.wire_size() == len(fresh.encode()), name
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


# -- the encode path: one encoder ---------------------------------------------

def _reference_frame(m):
    """What ``encode()`` must return, built from scratch with ``json.dumps``."""
    import json

    from repro.core.linguafranca.packets import encode_packet

    record = {"s": m.sender, "b": m.body}
    if m.req_id is not None:
        record["q"] = m.req_id
    if m.reply_to is not None:
        record["r"] = m.reply_to
    if m.trace is not None:
        record["t"] = [m.trace[0], m.trace[1]]
    return encode_packet(m.mtype, json.dumps(record, separators=(",", ":")).encode())


#: Values that compare equal but encode differently sit side by side, so
#: a cache keyed on equality alone would hand one the other's bytes.
_COLLIDING = st.sampled_from([0, 0.0, -0.0, False, 1, 1.0, True, None, "1", 2**53,
                              float(2**53)])
_MIXED_BODIES = st.dictionaries(
    st.sampled_from(["a", "b", "v"]),
    st.one_of(_COLLIDING, st.lists(_COLLIDING, max_size=2),
              st.dictionaries(st.just("x"), _COLLIDING, max_size=1),
              st.tuples(_COLLIDING)),
    max_size=3)
_HEADERS = st.fixed_dictionaries({}, optional={
    "req_id": st.integers(1, 3), "reply_to": st.integers(1, 3),
    "trace": st.tuples(st.integers(1, 3), st.integers(1, 3))})


@given(sends=st.lists(st.tuples(st.sampled_from(["a/x", "b/y"]), _MIXED_BODIES,
                                _HEADERS), min_size=1, max_size=20))
def test_encode_equals_a_fresh_json_dumps_frame_in_any_order(sends):
    """One mtype, hashable and list-bearing bodies in any order, with and
    without correlation or trace headers: every frame is byte-equal to a
    fresh ``json.dumps`` encode, whatever was encoded before it."""
    for sender, body, headers in sends:
        m = Message(mtype="T", sender=sender, body=dict(body), **headers)
        assert m.encode() == _reference_frame(m)


def test_circular_body_rejected():
    body = {"n": 1}
    body["self"] = body
    with pytest.raises(MessageError):
        Message(mtype="X", sender="a/b", body=body).encode()


@pytest.mark.parametrize("first, second", [
    (0.0, -0.0), (-0.0, 0.0), (1, True), (True, 1), (1, 1.0), (0, False),
    (2**53, float(2**53)), ((1,), (1.0,)),
], ids=repr)
def test_equal_values_that_encode_differently_never_share_a_frame(first, second):
    for value in (first, second, first):
        for header in ({}, {"req_id": 3}):
            m = Message(mtype="POLL", sender="a/b", body={"v": value, "n": 2},
                        **header)
            assert m.wire_size() == len(_reference_frame(m))
            assert m.encode() == _reference_frame(m)


def test_equal_keys_that_encode_differently_never_share_a_text():
    """JSON turns every key into a string: ``1``, ``1.0`` and ``True``
    are one dict key but three object keys."""
    for key in (1, 1.0, True, "1", 1):
        m = Message(mtype="POLL", sender="a/b", body={key: 5})
        assert m.encode() == _reference_frame(m)


# -- the simulated network's size: len(encode()) without the frame ----------

_EDGE_SCALARS = st.sampled_from([
    0, 0.0, -0.0, 1, 1.0, True, False, None, 2**53, float(2**53),
    float("nan"), float("inf"), float("-inf"), "", "é", "日本", "\x00"])
_SCALARS = st.one_of(_EDGE_SCALARS, st.integers(), st.floats(), st.text(max_size=6))
_KEYS = st.one_of(st.text(max_size=6), st.sampled_from(["ключ", 1, 1.0, True]))
_VALUES = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=3), st.tuples(children, children),
    st.dictionaries(_KEYS, children, max_size=3)), max_leaves=10)
_UNSERIALIZABLE = st.sampled_from([object(), {1, 2}, b"raw"])
_ANY_HEADER = st.one_of(st.integers(), st.sampled_from([0, -1, 2**64, True,
                                                        1.5, "q", None]))
_STAMPS = st.fixed_dictionaries({}, optional={
    "sender": st.text(max_size=6),
    "req_id": _ANY_HEADER, "reply_to": _ANY_HEADER,
    "trace": st.one_of(st.none(), st.tuples(st.integers(), st.integers()),
                       st.tuples(_ANY_HEADER, _ANY_HEADER))})


def _outcome(call):
    """What ``call()`` returns, or the class and text of what it raises."""
    try:
        return call()
    except (MessageError, PacketError) as exc:
        return type(exc), str(exc)


@given(mtype=st.one_of(st.sampled_from(["T", "GOS_DIGEST", "tipo-ñ", "",
                                        "x" * 257]), st.text(max_size=4)),
       body=st.dictionaries(_KEYS, st.one_of(_VALUES, _VALUES, _VALUES,
                                             _UNSERIALIZABLE), max_size=4),
       headers=_STAMPS, stamps=st.lists(_STAMPS.filter(bool), min_size=1,
                                        max_size=2),
       size_first=st.booleans())
def test_wire_size_is_the_encoded_length_and_raises_what_encode_raises(
        mtype, body, headers, stamps, size_first):
    """On a fresh copy, on the same object in either order, and again
    after each header stamp: the size is the frame's length, the frame is
    a fresh ``json.dumps`` encode, and a failure is the same failure."""
    sender = headers.pop("sender", "h/p")
    m = Message(mtype=mtype, sender=sender, body=body, **headers)
    for stamp in [{}] + stamps:
        for name, value in stamp.items():
            setattr(m, name, value)
        size = _outcome(dataclasses.replace(m).wire_size)
        data = _outcome(dataclasses.replace(m).encode)
        if size_first:
            kept = [_outcome(m.wire_size), _outcome(m.encode)]
        else:
            kept = [_outcome(m.encode), _outcome(m.wire_size)][::-1]
        if isinstance(data, bytes):
            assert data == _reference_frame(m)
            assert size == len(data)
        else:
            assert size == data
        assert kept == [size, data]


@given(data=st.one_of(st.binary(max_size=64), st.lists(st.sampled_from(
           [b"\r\n", b'"', b"\\", b"\x00", b"\x7f", bytes([0x80]),
            bytes([0xe9]), bytes([0xff]), b"GET / HTTP/1.1"]),
           max_size=12).map(b"".join)),
       sender=st.sampled_from(["gw0/gw", "stream:7", "u/usr"]),
       fin=st.booleans())
def test_a_segment_is_charged_its_header_plus_its_length(data, sender, fin):
    """Whatever the bytes (line ends, quotes, backslashes, bytes no text
    encoding would keep as one byte), a segment costs the simulated wire
    its length past the header an empty one costs."""
    from repro.core.component import segment

    header = segment(sender, b"", fin=fin).wire_size()
    assert segment(sender, data, fin=fin).wire_size() == header + len(data)


def test_an_oversized_payload_fails_both_calls_alike():
    from repro.core.linguafranca.packets import MAX_PAYLOAD_LEN

    m = Message(mtype="T", sender="a/b", body={"x": "y" * MAX_PAYLOAD_LEN})
    assert _outcome(m.wire_size) == _outcome(m.encode) == (
        PacketError, f"payload too large ({MAX_PAYLOAD_LEN + 24} bytes)")

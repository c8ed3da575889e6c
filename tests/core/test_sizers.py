"""Every byte count of a JSON value is its compact ``json.dumps`` length.

The program sizes what it keeps and sends with the codec's prebuilt
encoders (DESIGN §7 "Lingua-franca codec"), never with a per-call
``json.dumps``. Here each sizer is checked against that reference, kept
only in this file, on any string-keyed JSON value.
"""

import json
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro.core.gossip.digest import StateDigest
from repro.core.gossip.server import GossipServer
from repro.core.gossip.state import ComparatorRegistry, StateRecord
from repro.core.services.persistent import MemoryBackend
from repro.experiments import bigpool
from tests.core.test_messages import json_scalars, json_values


def _size(value) -> int:
    return len(json.dumps(value, separators=(",", ":")))


_DATA = st.dictionaries(st.text(max_size=8), json_values, max_size=4)
_RECORDS = st.builds(
    StateRecord, mtype=st.text(max_size=8), data=_DATA,
    stamp=st.floats(allow_nan=False, allow_infinity=False),
    origin=st.text(max_size=8), seq=st.integers(0, 2**31))


@given(rec=_RECORDS)
def test_a_record_body_size_is_its_compact_length(rec):
    assert rec.body_size == _size(rec.to_body())


@given(rec=_RECORDS, extra=st.dictionaries(st.text(max_size=3), json_scalars,
                                           max_size=2))
def test_an_adopted_body_is_sized_as_received(rec, extra):
    body = {**extra, **rec.to_body()}  # extra keys first: order as received
    server = GossipServer("g", ["srv/gossip"],
                          comparators=ComparatorRegistry())
    with mock.patch.object(StateDigest, "adopt", autospec=True) as adopt:
        server._merge_records([body])
    adopt.assert_called_once()
    assert adopt.call_args.args[2] == _size(body)


@given(puts=st.lists(st.tuples(st.sampled_from(["a", "b", "ключ"]), _DATA),
                     max_size=8))
def test_the_memory_backend_counts_what_it_holds(puts):
    backend = MemoryBackend()
    for key, obj in puts:
        backend.put(key, obj)
    assert backend.size_bytes() == sum(_size(backend.get(key))
                                       for key in backend.keys())


@given(state=st.dictionaries(st.text(max_size=8), json_values, max_size=6))
def test_a_pool_export_is_sorted_compact_json(state):
    with mock.patch.object(bigpool, "export_state", return_value=state):
        assert bigpool.export_json(None) == json.dumps(
            state, sort_keys=True, separators=(",", ":"))

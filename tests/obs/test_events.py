"""The bounded job-lifecycle feed behind ``GET /events``."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import EventLog, parse_jsonl, render_jsonl
from repro.obs.recordlog import encode_line


def _fill(log, n):
    """Append events 0..n-1; event i is at time i."""
    for i in range(n):
        log.append("noise", f"j-{i}", i)


def _since(log, seq, limit=500):
    """``log.since`` as the event dicts its lines render."""
    return [json.loads(line) for line in log.since(seq, limit=limit)]


def test_append_stamps_monotonic_seq():
    log = EventLog()
    assert log.latest_seq == -1
    for i in range(3):
        assert log.append("submitted", f"j-{i}", 0.0) == i
    assert log.latest_seq == 2
    assert [e["seq"] for e in _since(log, -1)] == [0, 1, 2]


def test_ring_drops_oldest_and_counts():
    log = EventLog(capacity=4)
    _fill(log, 10)
    assert len(log) == 4
    assert log.dropped == 6
    assert [e["t"] for e in _since(log, -1)] == [6, 7, 8, 9]
    assert log.latest_seq == 9


def test_since_is_strictly_greater_and_limited():
    log = EventLog()
    _fill(log, 5)
    assert [e["seq"] for e in _since(log, 2)] == [3, 4]
    assert [e["seq"] for e in _since(log, -1, limit=2)] == [0, 1]
    assert log.since(4) == []               # caught up: nothing new


def test_a_line_is_the_events_dict_form_rendered_once():
    """Each line is ``encode_line`` of the event's dict form to the byte
    (``extra`` sorted between ``job`` and ``seq``), rendered by the first
    read that reaches it and served as the same object after."""
    log = EventLog()
    log.append("done", 'q"\\é-1', 1.5, ',"requeues":2,"result":{"v":1}')
    log.append("assigned", "a-2", 3)
    first = log.since(-1)
    assert first == [
        encode_line({"event": "done", "job": 'q"\\é-1', "requeues": 2,
                     "result": {"v": 1}, "seq": 0, "t": 1.5}),
        encode_line({"event": "assigned", "job": "a-2", "seq": 1, "t": 3})]
    assert all(a is b for a, b in zip(log.since(-1), first))


def test_jsonl_round_trip():
    log = EventLog()
    log.append("submitted", "a-1", 0.5)
    log.append("done", "a-1", 1.25)
    text = render_jsonl(log.since(-1))
    assert text.count("\n") == 2
    events = parse_jsonl(text)
    assert [e["event"] for e in events] == ["submitted", "done"]
    assert events[0]["seq"] == 0


def test_empty_feed_renders_empty_string():
    assert render_jsonl([]) == ""
    assert parse_jsonl("") == []


def test_cursor_beyond_the_log_restarts_from_the_oldest_event():
    """A reborn producer numbers from 0; the consumer's cursor is still
    where the old incarnation left it. It must not read [] forever."""
    log = EventLog(capacity=4)
    assert log.since(5000) == []            # empty log: nothing to restart at
    _fill(log, 6)
    assert [e["seq"] for e in _since(log, 5000)] == [2, 3, 4, 5]
    assert [e["seq"] for e in _since(log, 6)] == [2, 3, 4, 5]
    assert [e["seq"] for e in _since(log, 5000, limit=1)] == [2]


def test_ring_overflow_is_visible_as_a_seq_gap():
    log = EventLog(capacity=4)
    _fill(log, 10)
    assert _since(log, 2)[0]["seq"] == 6    # 3, 4, 5 aged out: 6 > 2 + 1


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 9), appended=st.integers(0, 30),
       seq=st.integers(-3, 40), limit=st.integers(0, 12))
def test_since_by_arithmetic_equals_a_scan_of_the_ring(capacity, appended,
                                                       seq, limit):
    log = EventLog(capacity=capacity)
    _fill(log, appended)
    _since(log, seq - 3, limit=2)           # some lines rendered, some not
    ring = [json.loads(e)["seq"] if isinstance(e, str) else e[0]
            for e in log._events]
    expected = [s for s in ring if s > seq or seq > log.latest_seq]
    assert [e["seq"] for e in _since(log, seq, limit=limit)] == (
        expected[:limit] if limit else expected)


def test_since_does_not_walk_the_whole_ring():
    """O(returned): a tail read of a full ring touches the tail only."""
    class CountingDeque(list):
        reads = 0

        def __getitem__(self, index):
            CountingDeque.reads += 1
            return super().__getitem__(index)

    log = EventLog(capacity=1024)
    _fill(log, 1024)
    log._events = CountingDeque(log._events)
    assert [e["seq"] for e in _since(log, 1020)] == [1021, 1022, 1023]
    assert CountingDeque.reads == 3


def test_parse_jsonl_is_one_value_per_line():
    """One ``json.loads`` per page, with the per-line contract: blank
    lines are skipped, and a page that is not one value per line raises."""
    assert parse_jsonl('{"a":1}\n\n  \n{"b":[2,3]}\n') == [{"a": 1},
                                                          {"b": [2, 3]}]
    for page in ('{"a":1},{"b":2}\n', '{"a":[1\n2]}\n', '{"a":1}\n{\n'):
        with pytest.raises(ValueError):
            parse_jsonl(page)

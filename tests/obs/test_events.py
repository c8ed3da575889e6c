"""The bounded job-lifecycle feed behind ``GET /events``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import EventLog, parse_jsonl, render_jsonl


def test_append_stamps_monotonic_seq():
    log = EventLog()
    assert log.latest_seq == -1
    for i in range(3):
        log.append({"event": "submitted", "job": f"j-{i}"})
    assert log.latest_seq == 2
    assert [e["seq"] for e in log.since(-1)] == [0, 1, 2]


def test_ring_drops_oldest_and_counts():
    log = EventLog(capacity=4)
    for i in range(10):
        log.append({"i": i})
    assert len(log) == 4
    assert log.dropped == 6
    assert [e["i"] for e in log.since(-1)] == [6, 7, 8, 9]
    assert log.latest_seq == 9


def test_since_is_strictly_greater_and_limited():
    log = EventLog()
    for i in range(5):
        log.append({"i": i})
    assert [e["seq"] for e in log.since(2)] == [3, 4]
    assert [e["seq"] for e in log.since(-1, limit=2)] == [0, 1]
    assert log.since(4) == []               # caught up: nothing new


def test_jsonl_round_trip():
    log = EventLog()
    log.append({"event": "submitted", "job": "a-1", "t": 0.5})
    log.append({"event": "done", "job": "a-1", "t": 1.25})
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
    for i in range(6):
        log.append({"i": i})
    assert [e["seq"] for e in log.since(5000)] == [2, 3, 4, 5]
    assert [e["seq"] for e in log.since(6)] == [2, 3, 4, 5]
    assert [e["seq"] for e in log.since(5000, limit=1)] == [2]


def test_ring_overflow_is_visible_as_a_seq_gap():
    log = EventLog(capacity=4)
    for i in range(10):
        log.append({"i": i})
    assert log.since(2)[0]["seq"] == 6      # 3, 4, 5 aged out: 6 > 2 + 1


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 9), appended=st.integers(0, 30),
       seq=st.integers(-3, 40), limit=st.integers(0, 12))
def test_since_by_arithmetic_equals_a_scan_of_the_ring(capacity, appended,
                                                       seq, limit):
    log = EventLog(capacity=capacity)
    for i in range(appended):
        log.append({"i": i})
    ring = list(log._events)
    expected = [e for e in ring if e["seq"] > seq or seq > log.latest_seq]
    assert log.since(seq, limit=limit) == (expected[:limit] if limit
                                           else expected)


def test_since_does_not_walk_the_whole_ring():
    """O(returned): a tail read of a full ring touches the tail only."""
    class CountingDeque(list):
        reads = 0

        def __getitem__(self, index):
            CountingDeque.reads += 1
            return super().__getitem__(index)

    log = EventLog(capacity=1024)
    for i in range(1024):
        log.append({"i": i})
    log._events = CountingDeque(log._events)
    assert [e["seq"] for e in log.since(1020)] == [1021, 1022, 1023]
    assert CountingDeque.reads == 3

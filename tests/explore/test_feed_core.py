"""The feed contract, against the sans-IO core both planes run.

:class:`~repro.explore.queue.FeedConsumer` is everything the ME side
knows about the gateway's ``/events`` feed: the cursor, what is still
outstanding, and how a terminal line retires a job. ``ExploreQueue``
(live, over ``GatewayClient``) and ``FeedPump`` (the twin's conversation,
over simulated HTTP) only move bytes to and from it, so the contract is
pinned here once, with hand-written feed lines.
"""

from repro.explore.queue import ExploreQueue, FeedConsumer, FeedPump


def _line(seq, event, job, **extra):
    return {"seq": seq, "t": 0.0, "event": event, "job": job, **extra}


def _pushed(n=3, now=10.0):
    feed = FeedConsumer()
    specs = [{"x": i} for i in range(n)]
    feed.record_push([f"t-{i}" for i in range(n)], specs, now)
    return feed, specs


def test_push_then_done_line_retires_with_the_pushed_spec():
    feed, specs = _pushed()
    assert feed.pushed == 3 and feed.pushed_ids == ["t-0", "t-1", "t-2"]
    records = feed.ingest([
        _line(0, "submitted", "t-0"),
        _line(1, "assigned", "t-0"),
        _line(2, "done", "t-0", result={"value": 1.5}, requeues=2),
    ], now=12.5)
    assert records == [{"id": "t-0", "state": "done", "spec": specs[0],
                        "result": {"value": 1.5}, "requeues": 2,
                        "latency_s": 2.5}]
    assert sorted(feed.outstanding) == ["t-1", "t-2"]
    assert (feed.popped, feed.since, feed.seq_breaks) == (1, 2, 0)
    assert feed.latencies == [2.5]
    assert feed.pushed_ids == ["t-0", "t-1", "t-2"]     # retired ids stay listed


def test_duplicate_terminal_line_retires_once():
    feed, _ = _pushed()
    done = _line(0, "done", "t-1", result={"value": 0.0}, requeues=0)
    assert len(feed.ingest([done, dict(done, seq=1)], now=11.0)) == 1
    assert feed.ingest([dict(done, seq=2)], now=12.0) == []
    assert feed.popped == 1 and feed.seq_breaks == 0


def test_cancelled_line_retires_with_no_result():
    feed, specs = _pushed()
    (record,) = feed.ingest([_line(0, "cancelled", "t-2", requeues=1)], 11.0)
    assert record["state"] == "cancelled" and record["result"] is None
    assert record["requeues"] == 1 and record["spec"] == specs[2]
    assert feed.cancelled_seen == 1 and "t-2" not in feed.outstanding


def test_unknown_job_id_moves_the_cursor_and_nothing_else():
    feed, _ = _pushed()
    assert feed.ingest([_line(0, "done", "someone-elses", result={}),
                        _line(1, "done", None)], now=11.0) == []
    assert (feed.since, feed.popped, len(feed.outstanding)) == (1, 0, 3)


def test_reborn_feed_numbering_from_zero_is_adopted_and_flagged():
    feed, _ = _pushed()
    feed.ingest([_line(seq, "noise", "x") for seq in range(40)], now=11.0)
    assert (feed.since, feed.seq_breaks) == (39, 0)
    # SIGKILL + respawn: the new process counts from 0 again.
    (record,) = feed.ingest([_line(0, "done", "t-0", result={"value": 2.0})],
                            now=12.0)
    assert record["id"] == "t-0"
    assert (feed.since, feed.seq_breaks) == (0, 1)
    feed.ingest([_line(1, "noise", "x")], now=12.5)
    assert (feed.since, feed.seq_breaks) == (1, 1)      # contiguous again


def test_seq_gap_is_flagged_once_per_gap():
    feed, _ = _pushed()
    feed.ingest([_line(0, "noise", "x"), _line(1, "noise", "x")], now=11.0)
    feed.ingest([_line(7, "done", "t-0", result={}), _line(8, "noise", "x")],
                now=11.5)                               # ring overflow: 2..6 lost
    assert (feed.since, feed.seq_breaks, feed.popped) == (8, 1, 1)


def test_latency_unit_is_the_adapters_only_say_in_the_record():
    assert FeedConsumer.LATENCY == FeedPump.LATENCY
    key, scale, digits = ExploreQueue.LATENCY
    assert (key, scale, digits) == ("latency_ms", 1000.0, 3)
    queue = ExploreQueue(client=None)
    queue.record_push(["t-0"], [{"x": 0}], now=1.0)
    (record,) = queue.ingest([_line(0, "done", "t-0", result={})], now=1.25)
    assert record["latency_ms"] == 250.0
    assert queue.pop_latencies_ms == [250.0]
    assert queue.latency_quantile(0.99) == 250.0
    assert FeedConsumer().latency_quantile(0.5) is None

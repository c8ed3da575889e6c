"""ExploreQueue semantics against the real router, sans IO.

A thin adapter drives :class:`GatewayCore` directly — same routes, same
status codes, same events feed as the live HTTP plane — so push/pop/done
semantics are proven without sockets or processes.
"""

import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import GatewayCore, HttpError, MemoryJournal, WorkQueue
from repro.explore import ExploreQueue, make_eval_spec
from repro.explore.evals import execute_unit
from repro.obs.events import EventLog


class CoreClient:
    """GatewayClient-shaped adapter over a sans-IO GatewayCore."""

    def __init__(self, core):
        self.core = core
        self.now = 0.0
        #: Every read the queue made: ("job", id) / ("events", since, wait).
        self.calls = []

    def _handle(self, method, path, body=b""):
        self.now += 0.001
        return self.core.handle(method, path, body, self.now)

    def submit(self, spec):
        status, doc, _ = self._handle(
            "POST", "/jobs", json.dumps(spec).encode())
        assert status == 201, doc
        return doc

    def submit_batch(self, specs):
        status, doc, _ = self._handle(
            "POST", "/jobs/batch",
            json.dumps({"specs": list(specs)}).encode())
        assert status == 201, doc
        return [str(job_id) for job_id in doc["ids"]]

    def job(self, job_id):
        self.calls.append(("job", job_id))
        status, doc, _ = self._handle("GET", f"/jobs/{job_id}")
        if status != 200:
            return None
        # A finished job is served as its journaled body: parse it here,
        # at the edge, as GatewayClient parses the HTTP body.
        return json.loads(doc) if isinstance(doc, bytes) else doc

    def events(self, since=-1, wait=0.0, limit=500):
        self.calls.append(("events", since, wait))
        # The router is handed the wait and — like the e2e benchmark's
        # gateway child, which never parks — answers at once.
        status, payload, _ = self._handle(
            "GET",
            f"/events?since={int(since)}&limit={int(limit)}&wait={wait:g}")
        assert status == 200
        return [json.loads(line) for line in payload.splitlines()
                if line.strip()]

    def close(self):
        pass


@pytest.fixture()
def world():
    work = WorkQueue(prefix="t")
    core = GatewayCore("gw-test", work)
    client = CoreClient(core)
    queue = ExploreQueue(client, batch=True, poll=0.0)
    return work, queue


def _specs(n):
    return [make_eval_spec("sphere", {"x": float(i)}, seed=0)
            for i in range(n)]


def _finish(work, n=100):
    for _ in range(n):
        unit = work.next_unit()
        if unit is None:
            return
        work.complete(str(unit["id"]), execute_unit(unit))


def test_push_pop_done_roundtrip(world):
    work, queue = world
    ids = queue.push_tasks(_specs(3))
    assert ids == ["t-1", "t-2", "t-3"]
    assert queue.pushed == 3
    assert sorted(queue.outstanding) == ids
    assert queue.pushed_ids == ids

    _finish(work)
    results = queue.pop_results(min_results=3, timeout=1.0)
    assert {r["id"] for r in results} == set(ids)
    assert all(r["state"] == "done" for r in results)
    assert all(r["result"]["value"] is not None for r in results)
    assert all(r["latency_ms"] is not None for r in results)

    stats = queue.done()
    assert stats["pushed"] == stats["popped"] == 3
    assert stats["outstanding"] == 0
    assert stats["pop_p99_ms"] is not None


def test_pop_results_returns_early_when_nothing_outstanding(world):
    _, queue = world
    assert queue.pop_results(min_results=1, timeout=5.0) == []


def test_done_refuses_while_outstanding(world):
    work, queue = world
    queue.push_tasks(_specs(1))
    with pytest.raises(RuntimeError):
        queue.done()
    _finish(work)
    queue.pop_results(min_results=1, timeout=1.0)
    queue.done()


def test_single_submit_mode_matches_batch_mode(world):
    work, _ = world
    core = GatewayCore("gw2", WorkQueue(prefix="s"))
    single = ExploreQueue(CoreClient(core), batch=False, poll=0.0)
    ids = single.push_tasks(_specs(2))
    assert ids == ["s-1", "s-2"]
    assert sorted(single.outstanding) == ids


def test_cancelled_jobs_pop_as_cancelled_results(world):
    work, queue = world
    ids = queue.push_tasks(_specs(2))
    work.cancel(ids[0], now=1.0)
    _finish(work)
    results = queue.pop_results(min_results=2, timeout=1.0)
    by_id = {r["id"]: r for r in results}
    assert by_id[ids[0]]["state"] == "cancelled"
    assert by_id[ids[0]]["result"] is None
    assert by_id[ids[1]]["state"] == "done"
    assert queue.cancelled_seen == 1


def test_probe_fallback_survives_events_ring_overflow(world):
    work, queue = world
    # Overflow the bounded events ring so the completion events for the
    # first pushed jobs age out before the queue ever polls.
    ids = queue.push_tasks(_specs(4))
    _finish(work)
    capacity = queue.client.core.events.capacity
    for i in range(capacity + 10):
        work._event("noise", f"x-{i}", now=2.0)
    results = queue.pop_results(min_results=4, timeout=1.0)
    assert {r["id"] for r in results} == set(ids)


def test_queue_tracks_every_pushed_id_across_batches(world):
    work, queue = world
    queue.push_tasks(_specs(2))
    _finish(work)
    queue.pop_results(min_results=2, timeout=1.0)
    queue.push_tasks(_specs(3))
    assert queue.pushed == 5
    assert len(queue.pushed_ids) == 5        # retired ids stay listed


# -- completions ride the feed (ISSUE 19) -----------------------------------

def _job_calls(queue):
    return [call for call in queue.client.calls if call[0] == "job"]


def _assert_equals_job_record(queue, result):
    """What popped is what ``GET /jobs/{id}`` would have returned."""
    record = queue.client.job(result["id"])
    for field in ("state", "spec", "result", "requeues"):
        assert result[field] == record[field], (field, result, record)


def test_a_full_session_issues_no_job_call(world):
    work, queue = world
    queue.poll = 0.003
    for generation in range(3):
        ids = queue.push_tasks(_specs(50))
        popped = []
        while len(popped) < 50:
            _finish(work, 16)               # completions arrive in waves
            popped += queue.pop_results(min_results=1, timeout=1.0)
        assert sorted(r["id"] for r in popped) == sorted(ids)
    queue.done()
    assert _job_calls(queue) == []
    # ...and every feed read long-polled for `poll`.
    assert {call[2] for call in queue.client.calls} == {0.003}


def test_popped_fields_equal_the_job_record(world):
    work, queue = world
    ids = queue.push_tasks(_specs(4))
    work.requeue(work.next_unit())          # a requeue before completion
    work.requeue(work.next_unit())          # (front of the queue: t-1 twice)
    work.cancel(ids[3], now=1.0)
    _finish(work)
    results = {r["id"]: r for r in
               queue.pop_results(min_results=4, timeout=1.0)}
    assert _job_calls(queue) == []
    assert results[ids[0]]["requeues"] == 2
    assert results[ids[3]]["state"] == "cancelled"
    for result in results.values():
        _assert_equals_job_record(queue, result)


def test_empty_wait_read_still_costs_one_poll(world):
    """Against a server that does not park, an empty answer must not
    turn the pop loop into a spin: the rest of `poll` is slept."""
    _, queue = world
    queue.poll = 0.05
    queue.push_tasks(_specs(1))             # never finished
    t0 = time.monotonic()
    assert queue.pop_results(min_results=1, timeout=0.3) == []
    elapsed = time.monotonic() - t0
    reads = [c for c in queue.client.calls if c[0] == "events"]
    assert 0.3 <= elapsed < 1.0
    assert 3 <= len(reads) <= 8
    assert all(call[2] == 0.05 for call in reads)


def test_a_non_empty_answer_is_not_slept_on(world):
    work, queue = world
    queue.poll = 5.0
    queue.push_tasks(_specs(3))
    _finish(work)
    t0 = time.monotonic()
    assert len(queue.pop_results(min_results=3, timeout=30.0)) == 3
    assert time.monotonic() - t0 < 1.0


def test_pump_runs_on_every_iteration(world):
    work, queue = world
    pumped = []
    queue.pump = lambda: pumped.append(1)
    queue.push_tasks(_specs(2))
    _finish(work)
    queue.pop_results(min_results=2, timeout=1.0)
    assert pumped                            # even when the poll was productive


def test_seq_gap_probes_at_once(world):
    """Ring overflow is visible as a gap in the seqs: the probe runs in
    the same iteration, not after a quiet one."""
    work, queue = world
    ids = queue.push_tasks(_specs(4))
    _finish(work)
    for i in range(queue.client.core.events.capacity + 10):
        work._event("noise", f"x-{i}", now=2.0)
    assert queue._ingest_events() == 4
    assert [call[1] for call in _job_calls(queue)] == ids


class Down:
    """Wraps a CoreClient: its next ``fails`` calls raise the error a
    GatewayClient raises for a gateway that is down (``cause``)."""

    def __init__(self, client, fails, cause):
        self.client, self.fails, self.cause = client, fails, cause

    def __getattr__(self, name):
        call = getattr(self.client, name)

        def maybe_down(*args, **kwargs):
            if self.fails:
                self.fails -= 1
                raise HttpError("gateway unreachable") from self.cause
            return call(*args, **kwargs)
        return maybe_down


def test_an_unreachable_gateway_is_a_missed_poll(world):
    work, queue = world
    ids = queue.push_tasks(_specs(3))
    _finish(work)
    queue.client = Down(queue.client, 3, ConnectionRefusedError())
    results = queue.pop_results(min_results=3, timeout=5.0)
    assert sorted(r["id"] for r in results) == ids


def test_a_push_is_retried_only_when_the_connection_was_refused(world):
    _, queue = world
    client = queue.client
    queue.client = Down(client, 2, ConnectionRefusedError())
    assert queue.push_tasks(_specs(2)) == ["t-1", "t-2"]
    queue.client = Down(client, 1, ConnectionResetError())  # maybe sent
    with pytest.raises(HttpError):
        queue.push_tasks(_specs(1))
    assert queue.pushed == 2


def test_gateway_restart_mid_generation_loses_and_duplicates_nothing():
    journal = MemoryJournal()
    work = WorkQueue(journal=journal, prefix="t")
    client = CoreClient(GatewayCore("gw", work))
    queue = ExploreQueue(client, poll=0.0)
    ids = queue.push_tasks(_specs(20))
    _finish(work, 7)
    popped = queue.pop_results(min_results=7, timeout=1.0)
    assert queue.since > 20                # the cursor the restart strands
    _finish(work, 5)                        # done, but their events die unread
    work.next_unit()                        # in flight at the crash
    # SIGKILL + respawn: store rebuilt from the journal, feed numbered from 0.
    reborn = WorkQueue(journal=journal, prefix="t")
    client.core = GatewayCore("gw", reborn)
    assert reborn.replay() == 8
    _finish(reborn)
    assert client.core.events.latest_seq < queue.since
    while queue.outstanding:
        popped += queue.pop_results(min_results=1, timeout=1.0)
    assert sorted(r["id"] for r in popped) == sorted(ids)
    assert all(r["state"] == "done" for r in popped)
    # The reborn queue counts the journal's history: every one, once.
    assert (work.completed, reborn.completed) == (12, 20)
    # Eight rode the reborn feed; only the five whose events died with the
    # old process needed asking about.
    assert len(_job_calls(queue)) == 5
    for result in popped:
        _assert_equals_job_record(queue, result)
    queue.done()


class ScrambledFeed(CoreClient):
    """Delivers feed lines duplicated and out of order."""

    def __init__(self, core, rng):
        super().__init__(core)
        self.rng = rng
        self.scramble = False

    def events(self, since=-1, wait=0.0, limit=500):
        events = super().events(since, wait, limit)
        if self.scramble and events:
            events = events + [dict(self.rng.choice(events))]
            self.rng.shuffle(events)
        return events


OPS = st.lists(st.tuples(
    st.sampled_from(["push", "assign", "complete", "requeue", "cancel",
                     "noise", "replay_event", "scramble", "restart", "pop"]),
    st.integers(0, 7)), max_size=60)


@settings(max_examples=150, deadline=None)
@given(ops=OPS, seed=st.integers(0, 2 ** 16))
def test_every_pushed_id_pops_exactly_once_whatever_the_feed_does(ops, seed):
    """Ring overflow (capacity 8), duplicate and out-of-order terminal
    events, requeues before completion and the EventLog swapped for a
    fresh one (a restart): every pushed id still pops exactly once, with
    the fields of its job record, and done() never raises."""
    work = WorkQueue(prefix="t")
    work.events = EventLog(capacity=8)
    core = GatewayCore("gw", work)
    client = ScrambledFeed(core, random.Random(seed))
    ticks = itertools.count()
    queue = ExploreQueue(client, poll=0.0, clock=lambda: next(ticks))
    held, pushed, popped = [], [], []

    def pop():
        popped.extend(queue.pop_results(min_results=1, timeout=40))

    for op, n in ops:
        if op == "push":
            pushed += queue.push_tasks(_specs(n % 4 + 1))
        elif op == "assign":
            unit = work.next_unit()
            if unit is not None:
                held.append(unit)
        elif op == "complete" and held:
            unit = held.pop(n % len(held))
            work.complete(str(unit["id"]), execute_unit(unit))
        elif op == "requeue" and held:
            work.requeue(held.pop(n % len(held)))
        elif op == "cancel" and pushed:
            work.cancel(pushed[n % len(pushed)], now=1.0)
        elif op == "noise":
            for i in range(n + 1):
                work._event("noise", f"x-{i}", now=2.0)
        elif op == "replay_event" and len(core.events):
            # An old line delivered again, later and under a new seq.
            log = core.events
            seq = log.next_seq - len(log) + n % len(log)
            old = json.loads(log.since(seq - 1, limit=1)[0])
            extra = "".join(
                f',"{k}":'
                + json.dumps(old[k], sort_keys=True, separators=(",", ":"))
                for k in ("requeues", "result") if k in old)
            log.append(old["event"], old["job"], old["t"], extra)
        elif op == "scramble":
            client.scramble = not client.scramble
        elif op == "restart":
            core.events = work.events = EventLog(capacity=8)
        elif op == "pop":
            pop()
    _finish(work, n=10_000)
    for unit in held:                       # late reports of requeued units
        work.complete(str(unit["id"]), execute_unit(unit))
    for _ in range(len(pushed) + 2):
        if queue.outstanding:
            pop()
    assert sorted(r["id"] for r in popped) == sorted(pushed)
    for result in popped:
        _assert_equals_job_record(queue, result)
    stats = queue.done()
    assert stats["pushed"] == stats["popped"] == len(pushed)

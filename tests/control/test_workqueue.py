"""The durable WorkQueue: lifecycle, idempotency, journal replay.

The queue is the hinge of the control plane — the HTTP routers mutate it
from above, an unmodified SchedulerServer drains it from below, and the
journal is the reason a SIGKILLed gateway never loses an accepted job.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import FileJournal, MemoryJournal, WorkQueue


def test_submit_assign_complete_lifecycle():
    work = WorkQueue(prefix="t")
    job = work.submit({"kind": "noop"}, now=1.0)
    assert job.id == "t-1"
    assert job.state == "queued"
    assert len(work) == 1

    unit = work.next_unit()
    assert unit == {"kind": "noop", "id": "t-1"}
    assert work.get("t-1").state == "assigned"
    assert len(work) == 0

    work.complete("t-1", {"answer": 42}, now=2.0)
    done = work.get("t-1")
    assert done.state == "done"
    assert done.result == {"answer": 42}
    assert done.finished_at == 2.0
    assert work.stats()["completed"] == 1


def test_next_unit_carries_spec_plus_id_only():
    work = WorkQueue(prefix="t")
    work.submit({"k": 8, "n": 4, "seed": 7}, now=0.0)
    unit = work.next_unit()
    assert unit == {"k": 8, "n": 4, "seed": 7, "id": "t-1"}
    # The stored spec is a copy: mutating the unit can't corrupt the job.
    unit["k"] = 99
    assert work.get("t-1").spec["k"] == 8


def test_duplicate_completion_is_counted_once():
    # A requeued unit can come back from two clients: the first result
    # stands, the second is neither stored nor counted.
    work = WorkQueue(prefix="t", journal=MemoryJournal())
    job = work.submit({"kind": "noop"}, now=0.0)
    work.next_unit()
    work.complete(job.id, {"v": 1}, now=1.0)
    work.complete(job.id, {"v": 2}, now=2.0)
    assert (job.result, job.finished_at) == ({"v": 1}, 1.0)
    assert work.stats()["completed"] == 1
    assert [r["op"] for r in work.journal.records()] == ["submit", "done"]


def test_cancel_is_idempotent_and_unknown_is_none():
    work = WorkQueue(prefix="t")
    work.submit({}, now=0.0)
    first = work.cancel("t-1", now=1.0)
    again = work.cancel("t-1", now=2.0)
    assert first.state == "cancelled"
    assert again.state == "cancelled"
    assert again.finished_at == 1.0  # the second cancel is a no-op
    assert work.cancelled == 1
    assert work.cancel("t-404", now=3.0) is None
    # A cancelled-while-queued job never reaches a client.
    assert work.next_unit() is None


def test_cancel_done_job_is_noop_keeps_result():
    work = WorkQueue(prefix="t")
    work.submit({}, now=0.0)
    work.next_unit()
    work.complete("t-1", {"answer": 1}, now=1.0)
    job = work.cancel("t-1", now=2.0)
    assert job.state == "done"
    assert job.result == {"answer": 1}


def test_cancel_while_assigned_drops_late_result():
    work = WorkQueue(prefix="t")
    work.submit({}, now=0.0)
    unit = work.next_unit()
    work.cancel(unit["id"], now=1.0)
    work.complete(unit["id"], {"answer": 1}, now=2.0)
    job = work.get(unit["id"])
    assert job.state == "cancelled"
    assert job.result is None
    assert work.results_dropped == 1


def test_requeue_goes_to_front_and_skips_terminal():
    work = WorkQueue(prefix="t")
    work.submit({"a": 1}, now=0.0)
    work.submit({"a": 2}, now=0.0)
    unit = work.next_unit()
    assert unit["id"] == "t-1"
    work.requeue(unit)
    assert work.get("t-1").state == "queued"
    assert work.get("t-1").requeues == 1
    # Requeued in-flight work outranks never-assigned work.
    assert work.next_unit()["id"] == "t-1"
    # Requeue of a cancelled unit dies silently.
    unit2 = work.next_unit()
    work.cancel(unit2["id"], now=1.0)
    work.requeue(unit2)
    assert work.next_unit() is None


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_replay_requeues_nonterminal_preserves_terminal(kind, tmp_path):
    # A MemoryJournal survives a *simulated* restart as the same object;
    # a FileJournal survives a real one as the same path.
    memory = MemoryJournal()

    def make():
        if kind == "file":
            return FileJournal(str(tmp_path / "q.jsonl"))
        return memory

    journal = make()
    work = WorkQueue(journal=journal, prefix="t")
    work.submit({"a": 1}, now=1.0)   # will finish
    work.submit({"a": 2}, now=2.0)   # will be cancelled
    work.submit({"a": 3}, now=3.0)   # assigned at crash time
    work.submit({"a": 4}, now=4.0)   # still queued at crash time
    work.next_unit()                 # t-1 assigned
    work.complete("t-1", {"answer": 1}, now=5.0)
    work.cancel("t-2", now=6.0)
    work.next_unit()                 # t-3 assigned, crash before report
    work.close()

    reborn = WorkQueue(journal=make(), prefix="t")
    assert reborn.get("t-1").state == "done"
    assert reborn.get("t-1").result == {"answer": 1}
    assert reborn.get("t-2").state == "cancelled"
    # Queued AND assigned jobs come back queued — requeued, not dropped.
    assert reborn.get("t-3").state == "queued"
    assert reborn.get("t-4").state == "queued"
    assert len(reborn) == 2
    # Id allocation continues past the replayed high-water mark.
    assert reborn.submit({}, now=7.0).id == "t-5"


def test_replay_return_value_counts_requeued(tmp_path):
    journal = FileJournal(str(tmp_path / "q.jsonl"))
    work = WorkQueue(journal=journal, prefix="t")
    work.submit({}, now=0.0)
    work.submit({}, now=0.0)
    work.cancel("t-2", now=1.0)
    work.close()
    reborn = WorkQueue(journal=FileJournal(str(tmp_path / "q.jsonl")),
                       prefix="t")
    assert reborn.replay() == 1


def test_file_journal_survives_torn_tail_write(tmp_path):
    path = str(tmp_path / "q.jsonl")
    journal = FileJournal(path)
    work = WorkQueue(journal=journal, prefix="t")
    work.submit({"a": 1}, now=0.0)
    work.submit({"a": 2}, now=0.0)
    work.close()
    # A crash mid-append leaves a torn, unparseable last line.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"op": "done", "id": "t-2", "resu')
    reborn = WorkQueue(journal=FileJournal(path), prefix="t")
    # The torn record is skipped; everything before it replays intact.
    assert reborn.get("t-1").state == "queued"
    assert reborn.get("t-2").state == "queued"
    # ...silently: a torn *last* line is what a crash looks like.
    assert reborn.journal.skipped == 0
    assert reborn.stats()["journal_skipped"] == 0


def test_mid_file_corruption_is_counted_not_mistaken_for_a_torn_tail(tmp_path):
    from repro.control import GatewayCore

    path = str(tmp_path / "q.jsonl")
    work = WorkQueue(journal=FileJournal(path), prefix="t")
    for i in range(3):
        work.submit({"a": i}, now=0.0)
    work.close()
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[1] = lines[1][:15] + "\n"          # the middle record, damaged
    lines.insert(2, "[1, 2]\n")              # parses, but is no record
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines + ['{"op": "done", "id": "t-3", "resu'])
    reborn = WorkQueue(journal=FileJournal(path), prefix="t")
    assert sorted(reborn.jobs) == ["t-1", "t-3"]     # t-2 is gone...
    assert reborn.journal.skipped == 2               # ...and it shows
    assert reborn.stats()["journal_skipped"] == 2
    core = GatewayCore("gw", reborn)
    assert core.handle("GET", "/queue", b"", 0.0)[1]["journal_skipped"] == 2
    assert WorkQueue(prefix="m").stats()["journal_skipped"] == 0


def _two_jobs_then(path, tail: bytes) -> None:
    work = WorkQueue(journal=FileJournal(path), prefix="t")
    work.submit({"a": 1}, now=0.0)
    work.submit({"a": 2}, now=0.0)
    work.close()
    with open(path, "ab") as fh:
        fh.write(tail)


#: The third record as the appender writes it, newline included; every
#: proper prefix of it is a torn tail — the last one (complete JSON, no
#: newline) is the one a reader is most tempted to accept.
_THIRD = b'{"id":"t-3","op":"submit","spec":{"a":3},"t":1.0}\n'


@pytest.mark.parametrize("cut", range(1, len(_THIRD)))
def test_job_accepted_after_a_torn_tail_is_not_lost(tmp_path, cut):
    path = str(tmp_path / "q.jsonl")
    _two_jobs_then(path, _THIRD[:cut])
    reborn = WorkQueue(journal=FileJournal(path), prefix="t")
    assert sorted(reborn.jobs) == ["t-1", "t-2"]   # never acknowledged
    accepted = reborn.submit({"a": 3}, now=1.0)    # the 201 leaves here
    reborn.close()
    again = WorkQueue(journal=FileJournal(path), prefix="t")
    assert again.get(accepted.id) is not None
    assert again.get(accepted.id).spec == {"a": 3}
    assert again.journal.skipped == 0
    with open(path, "rb") as fh:
        lines = fh.readlines()
    assert len(lines) == 3 and lines[-1] == _THIRD   # cut, not glued onto


def test_non_utf8_byte_mid_journal_is_counted_never_fatal(tmp_path):
    path = str(tmp_path / "q.jsonl")
    _two_jobs_then(path, _THIRD)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    middle = data.index(b"\n") + 10            # inside the second record
    data[middle] ^= 0x80
    with open(path, "wb") as fh:
        fh.write(data)
    reborn = WorkQueue(journal=FileJournal(path), prefix="t")
    assert sorted(reborn.jobs) == ["t-1", "t-3"]
    assert reborn.journal.skipped == 1


def test_benchmark_patch_targets_are_defined_on_the_classes():
    # benchmarks/e2e/gateway_child.py wraps vars(cls)[name]; an inherited
    # or renamed method would make its traced pass report
    # "wrap target missing" in CI only.
    assert {"append", "append_many"} <= set(vars(FileJournal))
    assert {"submit", "submit_batch", "get", "next_unit",
            "complete"} <= set(vars(WorkQueue))


# -- replay == live, at any crash point --------------------------------------

_OPS = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 9)),
    st.tuples(st.just("submit_batch"), st.integers(0, 4)),
    st.tuples(st.just("next_unit"), st.just(0)),
    st.tuples(st.sampled_from(["requeue", "complete", "cancel"]),
              st.integers(0, 30)),
), max_size=25)


def _lines(path) -> int:
    """Complete (newline-terminated) lines in the file."""
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


@given(ops=_OPS, cut=st.integers(min_value=0))
@settings(max_examples=60, deadline=None)
def test_replayed_queue_equals_live_queue_and_no_crash_point_loses_a_job(
        tmp_path_factory, ops, cut):
    path = str(tmp_path_factory.mktemp("q") / "q.jsonl")
    live = WorkQueue(journal=FileJournal(path), prefix="t")
    now = 0.0
    for op, arg in ops:
        now += 1.0
        known = list(live.jobs)
        job_id = known[arg % len(known)] if known else "t-0"
        if op == "submit":
            live.submit({"a": arg}, now=now)
        elif op == "submit_batch":
            live.submit_batch([{"b": i} for i in range(arg)], now=now)
        elif op == "next_unit":
            live.next_unit()
        elif op == "requeue":
            live.requeue({"id": job_id})
        elif op == "complete":
            live.complete(job_id, {"r": arg}, now=now)
        else:
            live.cancel(job_id, now=now)
    live.close()

    # Replay == live: same ids in submit order, terminal jobs identical,
    # everything else back in the queue in submit order, next id unused.
    reborn = WorkQueue(journal=FileJournal(path), prefix="t")
    assert list(reborn.jobs) == list(live.jobs)
    terminal = ("done", "cancelled")
    for job_id, job in live.jobs.items():
        twin = reborn.jobs[job_id]
        if job.state in terminal:
            assert ((twin.state, twin.result, twin.finished_at)
                    == (job.state, job.result, job.finished_at))
        else:
            assert twin.state == "queued"
    assert list(reborn._queue) == [
        j for j, job in live.jobs.items() if job.state not in terminal]
    assert reborn.submit({}, now=now).id not in live.jobs
    reborn.close()

    # Crash anywhere in the file: whatever survives, the next accepted
    # job is neither lost nor duplicated.
    with open(path, "r+b") as fh:
        fh.truncate(cut % (fh.seek(0, 2) + 1))
    complete = _lines(path)
    crashed = WorkQueue(journal=FileJournal(path), prefix="t")
    accepted = crashed.submit({"after": "crash"}, now=now)
    crashed.close()
    final = WorkQueue(journal=FileJournal(path), prefix="t")
    assert final.get(accepted.id).spec == {"after": "crash"}
    assert final.journal.skipped == 0
    assert _lines(path) == complete + 1


def test_stats_are_json_safe_counters():
    import json

    work = WorkQueue(prefix="t")
    work.submit({}, now=0.0)
    stats = work.stats()
    json.dumps(stats)
    assert stats["state_queued"] == 1
    assert stats["state_total"] == 1
    assert stats["depth"] == 1


# -- batch submission (POST /jobs/batch) ------------------------------------

class _SpyJournal(MemoryJournal):
    """Counts journal calls: a batch must cost ONE append_many."""

    def __init__(self):
        super().__init__()
        self.appends = 0
        self.batches = 0

    def append(self, record):
        self.appends += 1
        super().append(record)

    def append_many(self, records):
        self.batches += 1
        super().append_many(records)


def test_submit_batch_mints_ids_in_order_one_journal_call():
    spy = _SpyJournal()
    work = WorkQueue(journal=spy, prefix="t")
    jobs = work.submit_batch([{"i": 0}, {"i": 1}, {"i": 2}], now=1.0)
    assert [j.id for j in jobs] == ["t-1", "t-2", "t-3"]
    assert all(j.state == "queued" for j in jobs)
    assert (spy.appends, spy.batches) == (0, 1)  # one flush for N specs
    assert work.stats()["submitted"] == 3
    # FIFO: the batch drains in list order.
    assert [work.next_unit()["id"] for _ in range(3)] == ["t-1", "t-2", "t-3"]


def test_submit_batch_replays_like_single_submits(tmp_path):
    path = str(tmp_path / "q.jsonl")
    work = WorkQueue(journal=FileJournal(path), prefix="t")
    work.submit_batch([{"i": 0}, {"i": 1}], now=1.0)
    work.next_unit()                       # t-1 assigned at crash time
    work.close()
    reborn = WorkQueue(journal=FileJournal(path), prefix="t")
    assert reborn.get("t-1").state == "queued"   # requeued, not lost
    assert reborn.get("t-2").state == "queued"
    assert reborn.get("t-1").spec == {"i": 0}
    assert reborn.submit({}, now=2.0).id == "t-3"


# -- cancel vs in-flight completions (live AND replay must agree) -----------

def test_cancel_then_late_complete_live_and_replay_agree(tmp_path):
    path = str(tmp_path / "q.jsonl")
    work = WorkQueue(journal=FileJournal(path), prefix="t")
    work.submit({"a": 1}, now=0.0)
    unit = work.next_unit()
    work.cancel(unit["id"], now=1.0)
    # The client the scheduler assigned t-1 to reports late:
    work.complete(unit["id"], {"answer": 1}, now=2.0)
    assert work.get("t-1").state == "cancelled"
    assert work.get("t-1").result is None
    assert work.results_dropped == 1
    work.close()
    # Replay of the same journal must agree byte-for-byte on the state.
    reborn = WorkQueue(journal=FileJournal(path), prefix="t")
    assert reborn.get("t-1").state == "cancelled"
    assert reborn.get("t-1").result is None
    assert reborn.get("t-1").to_dict() == work.get("t-1").to_dict()


def test_replay_ignores_done_record_after_cancel(tmp_path):
    # A journal that *does* carry a done record after a cancel (e.g.
    # written by a pre-hardening gateway, or interleaved across a
    # restart) must not resurrect the job: terminal states are final.
    import json as _json

    path = str(tmp_path / "q.jsonl")
    records = [
        {"op": "submit", "id": "t-1", "spec": {"a": 1}, "t": 0.0},
        {"op": "cancel", "id": "t-1", "t": 1.0},
        {"op": "done", "id": "t-1", "result": {"answer": 1}, "t": 2.0},
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_json.dumps(record) + "\n")
    work = WorkQueue(journal=FileJournal(path), prefix="t")
    assert work.get("t-1").state == "cancelled"
    assert work.get("t-1").result is None
    assert work.next_unit() is None


def test_replay_ignores_cancel_record_after_done(tmp_path):
    import json as _json

    path = str(tmp_path / "q.jsonl")
    records = [
        {"op": "submit", "id": "t-1", "spec": {"a": 1}, "t": 0.0},
        {"op": "done", "id": "t-1", "result": {"answer": 1}, "t": 1.0},
        {"op": "cancel", "id": "t-1", "t": 2.0},
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_json.dumps(record) + "\n")
    work = WorkQueue(journal=FileJournal(path), prefix="t")
    assert work.get("t-1").state == "done"
    assert work.get("t-1").result == {"answer": 1}


# -- §3.1 result checks: distrust remote results ----------------------------

def _register_reject_kind():
    from repro.core.services.kinds import ResultCheckError, register_kind

    def check(spec, result):
        if not isinstance(result, dict) or result.get("bad"):
            raise ResultCheckError("corrupted result")

    register_kind("test.reject", check_result=check, replace=True,
                  description="test kind whose checker rejects bad=True")


def test_rejected_result_requeues_without_journal_record(tmp_path):
    _register_reject_kind()
    path = str(tmp_path / "q.jsonl")
    work = WorkQueue(journal=FileJournal(path), prefix="t")
    work.submit({"kind": "test.reject"}, now=0.0)
    unit = work.next_unit()
    work.complete(unit["id"], {"bad": True}, now=1.0)
    # Rejected: requeued for honest re-execution, nothing recorded.
    assert work.get("t-1").state == "queued"
    assert work.results_rejected == 1
    assert work.stats()["results_rejected"] == 1
    assert work.completed == 0
    unit = work.next_unit()
    work.complete(unit["id"], {"value": 7}, now=2.0)
    assert work.get("t-1").state == "done"
    assert work.get("t-1").result == {"value": 7}
    work.close()
    # The journal never saw the rejected completion.
    reborn = WorkQueue(journal=FileJournal(path), prefix="t")
    assert reborn.get("t-1").state == "done"
    assert reborn.get("t-1").result == {"value": 7}


def test_rejected_result_after_reaper_requeue_only_counts():
    _register_reject_kind()
    work = WorkQueue(prefix="t")
    work.submit({"kind": "test.reject"}, now=0.0)
    unit = work.next_unit()
    work.requeue(unit)                     # the reaper got there first
    work.complete(unit["id"], {"bad": True}, now=1.0)
    assert work.get("t-1").state == "queued"
    assert work.results_rejected == 1
    assert work.get("t-1").requeues == 1   # no double requeue


def test_unregistered_kind_results_accepted_unchecked():
    work = WorkQueue(prefix="t")
    work.submit({"kind": "noop"}, now=0.0)
    unit = work.next_unit()
    work.complete(unit["id"], {"bad": True}, now=1.0)
    assert work.get("t-1").state == "done"
    assert work.results_rejected == 0

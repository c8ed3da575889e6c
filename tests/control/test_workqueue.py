"""The durable WorkQueue: lifecycle, idempotency, journal replay.

The queue is the hinge of the control plane — the HTTP routers mutate it
from above, an unmodified SchedulerServer drains it from below, and the
journal is the reason a SIGKILLed gateway never loses an accepted job.
"""

import pytest

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

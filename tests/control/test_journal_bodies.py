"""A finished job lives in the journal (DESIGN §13, "What a finished job
holds"): its terminal record carries the ``GET /jobs/{id}`` body, the
heap holds only live jobs, and every answer the gateway gives is the
same before and after a restart — and the same as when finished jobs
were held in memory."""

import json

import pytest

from repro.control import (FileJournal, GatewayCore, MemoryJournal,
                           WorkQueue, json_response, render_payload)
from repro.obs.prom import parse_prometheus, sample_value
from repro.obs.recordlog import encode_line


def _get(core: GatewayCore, job_id: str) -> bytes:
    frame = render_payload(*core.handle("GET", f"/jobs/{job_id}", b"", 9.0))
    return frame.partition(b"\r\n\r\n")[2]


def _fates(work: WorkQueue) -> list:
    """One job per fate; returns their ids."""
    requeued_done = work.submit({"k": 2}, now=1.0).id
    done = work.submit({"k": 3, "list": [1, 2.5, None]}, now=1.0).id
    cancelled = work.submit({"k": 4}, now=1.0).id
    requeued_cancelled = work.submit({"k": 5}, now=1.0).id
    for _ in range(4):
        work.next_unit()
    queued = work.submit({"k": 1, "name": "café"}, now=1.0).id
    work.requeue({"id": requeued_done})
    work.complete(requeued_done, {"answer": 1}, now=2.0)
    work.complete(done, {"answer": "été"}, now=2.5)
    work.cancel(cancelled, now=3.0)
    work.requeue({"id": requeued_cancelled})
    work.requeue({"id": requeued_cancelled})
    work.cancel(requeued_cancelled, now=3.5)
    return [queued, requeued_done, done, cancelled, requeued_cancelled]


@pytest.mark.parametrize("kind", ["file", "memory"])
def test_get_bytes_are_the_same_before_and_after_a_restart(tmp_path, kind):
    # A requeued job's finished body used to say "requeues":1 live and
    # "requeues":0 once replayed: requeues were not journaled. The twin's
    # in-memory journal said 0 for longer, kept apart on its own path.
    path = str(tmp_path / "q.jsonl")
    journal = FileJournal(path) if kind == "file" else MemoryJournal()
    live = WorkQueue(journal=journal, prefix="t")
    ids = _fates(live)
    before = {job_id: _get(GatewayCore("gw", live), job_id) for job_id in ids}
    assert b'"requeues":1' in before[ids[1]]
    assert b'"requeues":2' in before[ids[4]]
    live.close()
    reborn = WorkQueue(journal=FileJournal(path) if kind == "file"
                       else journal, prefix="t")
    core = GatewayCore("gw", reborn)
    assert {job_id: _get(core, job_id) for job_id in ids} == before
    assert list(reborn.jobs) == [ids[0]]  # the heap holds the live job only
    reborn.close()


def test_terminal_record_ends_with_the_get_body(tmp_path):
    path = str(tmp_path / "q.jsonl")
    work = WorkQueue(journal=FileJournal(path), prefix="t")
    job = work.submit({"k": 8}, now=0.5)
    work.next_unit()
    work.complete(job.id, {"v": [1, 2]}, now=1.5)
    body = _get(GatewayCore("gw", work), job.id)
    work.close()
    with open(path, "rb") as fh:
        done = fh.readlines()[-1]
    assert done == (b'{"id":"t-1","op":"done","t":1.5,"job":'
                    + body[:-1] + b"}\n")
    assert json.loads(done)["job"] == json.loads(body)


def test_a_cold_get_neither_renders_nor_parses(tmp_path):
    import repro.control.http as http
    import repro.control.workqueue as workqueue

    path = str(tmp_path / "q.jsonl")
    live = WorkQueue(journal=FileJournal(path), prefix="t")
    ids = _fates(live)
    live.close()
    reborn = WorkQueue(journal=FileJournal(path), prefix="t")
    core = GatewayCore("gw", reborn)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for module in (workqueue, http):
            patch.setattr(module, "_encode",
                          lambda value: calls.append("encode"))
        patch.setattr(json, "loads", lambda *a, **k: calls.append("loads"))
        for job_id in ids[1:]:
            assert _get(core, job_id).startswith(b'{"finished_at":')
    assert calls == []
    reborn.close()


def test_a_finished_job_reads_back_as_it_was(tmp_path):
    path = str(tmp_path / "q.jsonl")
    work = WorkQueue(journal=FileJournal(path), prefix="t")
    ids = _fates(work)
    job = work.get(ids[1])
    assert (job.id, job.state, job.spec, job.result, job.submitted_at,
            job.finished_at, job.requeues) == (
        ids[1], "done", {"k": 2}, {"answer": 1}, 1.0, 2.0, 1)
    assert job.to_dict() == json.loads(_get(GatewayCore("gw", work), ids[1]))
    assert work.get(ids[4]).state == "cancelled"
    # A finished job keeps its answers: completion again is a duplicate,
    # cancel is a no-op (409 through the gateway), requeue does nothing.
    work.complete(ids[1], {"answer": 2}, now=5.0)
    work.requeue({"id": ids[1]})
    assert work.cancel(ids[1], now=5.0).state == "done"
    work.complete(ids[3], {"late": True}, now=5.0)
    assert work.results_dropped == 1
    core = GatewayCore("gw", work)
    assert core.handle("POST", f"/jobs/{ids[1]}/cancel", b"", 5.0)[0] == 409
    status, doc, _ = core.handle("POST", f"/jobs/{ids[3]}/cancel", b"", 5.0)
    assert (status, doc) == (200, {"id": ids[3], "state": "cancelled",
                                   "finished_at": 3.0})
    assert work.get(ids[1]).result == {"answer": 1}
    assert (work.completed, work.cancelled) == (2, 2)
    work.close()


def test_a_journal_written_before_bodies_replays_to_the_same_bodies(
        tmp_path):
    # The terminal records as they were written before they carried the
    # job's body; a restart then served each job rendered from its values
    # (requeues were not journaled, so a finished job said 0).
    path = str(tmp_path / "q.jsonl")
    old = [{"op": "submit", "id": "t-1", "spec": {"k": "é"}, "t": 1.0},
           {"op": "submit", "id": "t-2", "spec": {"k": 2}, "t": 1.0},
           {"op": "submit", "id": "t-3", "spec": {"k": 3}, "t": 1.25,
            "trace": [7, 9]},
           {"op": "done", "id": "t-1", "result": {"v": [1]}, "t": 2.0},
           {"op": "cancel", "id": "t-2", "t": 3.0}]
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(map(encode_line, old))
    docs = {"t-1": {"id": "t-1", "state": "done", "spec": {"k": "é"},
                    "submitted_at": 1.0, "finished_at": 2.0,
                    "result": {"v": [1]}, "requeues": 0},
            "t-2": {"id": "t-2", "state": "cancelled", "spec": {"k": 2},
                    "submitted_at": 1.0, "finished_at": 3.0,
                    "result": None, "requeues": 0}}
    expected = {job_id: json_response(200, doc).partition(b"\r\n\r\n")[2]
                for job_id, doc in docs.items()}
    work = WorkQueue(journal=FileJournal(path), prefix="t")
    assert work.counts() == {"queued": 1, "assigned": 0, "done": 1,
                             "cancelled": 1, "total": 3}
    core = GatewayCore("gw", work)
    assert sorted(work.jobs) == ["t-1", "t-2", "t-3"]  # values, until...
    assert {j: _get(core, j) for j in expected} == expected
    assert list(work.jobs) == ["t-3"]                  # ...the first GET
    assert {j: _get(core, j) for j in expected} == expected
    # The gateway goes on in the new shape in the same file; a restart
    # reads both shapes.
    work.next_unit()
    work.complete("t-3", {"v": 3}, now=4.0)
    expected["t-3"] = _get(core, "t-3")
    assert b'"trace"' not in expected["t-3"]
    work.close()
    reborn = WorkQueue(journal=FileJournal(path), prefix="t")
    assert {j: _get(GatewayCore("gw", reborn), j)
            for j in expected} == expected
    assert reborn.submit({}, now=5.0).id == "t-4"
    reborn.close()


@pytest.mark.parametrize("n", [0, 1, 100, 101, 250])
def test_listing_and_counts_do_not_depend_on_where_jobs_live(tmp_path, n):
    path = str(tmp_path / "q.jsonl")
    work = WorkQueue(journal=FileJournal(path), prefix="t")
    ids = [job.id for job in work.submit_batch(
        [{"i": i} for i in range(n)], now=0.0)]
    for _ in range(n // 2):
        work.next_unit()
    done, cancelled = ids[::3], [j for j in ids[1::4] if j not in ids[::3]]
    for job_id in done:
        work.complete(job_id, {"ok": True}, now=1.0)
    for job_id in cancelled:
        work.cancel(job_id, now=1.0)
    live = [j for j in ids if j not in done and j not in cancelled]
    assigned = [j for j in ids[:n // 2] if j in live]
    counts = {"queued": len(live) - len(assigned),
              "assigned": len(assigned), "done": len(done),
              "cancelled": len(cancelled), "total": n}
    listing = {"counts": counts, "jobs": ids[-100:], "truncated": n > 100}
    assert work.counts() == counts
    assert GatewayCore("gw", work).handle("GET", "/jobs", b"", 2.0)[1] \
        == listing
    assert list(work.jobs) == live
    work.close()
    reborn = WorkQueue(journal=FileJournal(path), prefix="t")
    replayed = {**counts, "queued": len(live), "assigned": 0}
    assert reborn.counts() == replayed
    assert GatewayCore("gw", reborn).handle("GET", "/jobs", b"", 2.0)[1] \
        == {**listing, "counts": replayed}
    reborn.close()


def test_metrics_publish_the_queue_size(tmp_path):
    work = WorkQueue(journal=FileJournal(str(tmp_path / "q.jsonl")),
                     prefix="t")
    core = GatewayCore("gw", work)

    def scrape() -> dict:
        samples = parse_prometheus(core.handle("GET", "/metrics", b"", 0.0)[1])
        return {**{state: sample_value(samples, "workqueue_jobs",
                                       state=state)
                   for state in ("queued", "assigned", "done",
                                 "cancelled")},
                "held": sample_value(samples, "workqueue_jobs_held")}

    ids = [job.id for job in work.submit_batch([{}] * 5, now=0.0)]
    counts = work.counts()
    assert scrape() == {"queued": 5, "assigned": 0, "done": 0,
                        "cancelled": 0, "held": 5} == {
        **{k: counts[k] for k in counts if k != "total"}, "held": 5}
    work.next_unit()
    work.next_unit()
    work.complete(ids[0], {}, now=1.0)
    work.cancel(ids[2], now=1.0)
    counts = work.counts()
    assert scrape() == {**{k: counts[k] for k in counts if k != "total"},
                        "held": 3}
    assert counts == {"queued": 2, "assigned": 1, "done": 1, "cancelled": 1,
                      "total": 5}
    work.close()


def test_an_id_far_past_the_index_cannot_size_it(tmp_path):
    path = str(tmp_path / "q.jsonl")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(encode_line({"op": "submit", "id": "t-1000000000000",
                              "spec": {}, "t": 0.0}))
    work = WorkQueue(journal=FileJournal(path), prefix="t")
    job = work.submit({"k": 1}, now=1.0)
    assert job.id == "t-1000000000001"
    for job_id in ("t-1000000000000", job.id):
        work.next_unit()
        work.complete(job_id, {"v": 1}, now=2.0)
    assert len(work._offsets) == 0
    assert work.get(job.id).result == {"v": 1}
    work.close()
    reborn = WorkQueue(journal=FileJournal(path), prefix="t")
    assert reborn.get(job.id).result == {"v": 1}
    assert reborn.counts()["done"] == 2
    reborn.close()


def test_a_second_submit_record_reopens_a_finished_job(tmp_path):
    # Never written by the queue, which mints each id once; a hand-merged
    # journal still replays to one job per id, the last submit winning.
    path = str(tmp_path / "q.jsonl")
    work = WorkQueue(journal=FileJournal(path), prefix="t")
    work.submit({"k": 1}, now=0.0)
    work.next_unit()
    work.complete("t-1", {"v": 1}, now=1.0)
    work.close()
    with open(path, "a", encoding="ascii") as fh:
        fh.write(encode_line({"op": "submit", "id": "t-1", "spec": {"k": 2},
                              "t": 2.0}))
    reborn = WorkQueue(journal=FileJournal(path), prefix="t")
    assert reborn.counts() == {"queued": 1, "assigned": 0, "done": 0,
                               "cancelled": 0, "total": 1}
    assert (reborn.get("t-1").state, reborn.get("t-1").spec) == (
        "queued", {"k": 2})
    assert reborn.newest() == ["t-1"]
    reborn.close()

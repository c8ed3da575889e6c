"""A finished job on a line journal is a byte range of the journal, not
an object (DESIGN §13, "What a finished job holds"): what a gateway
retains per finished job bounds how long it can run, since finished
jobs stay readable."""

import gc
import json
import random
import tracemalloc

from repro.control import FileJournal, GatewayCore, MemoryJournal, WorkQueue

#: Retained bytes per finished job as this test measures them on CPython
#: 3.11: 960 while a job kept its spec and result objects, 496 holding
#: the bytes GET /jobs/{id} serves, 72 as a range of the journal (16 B of
#: index; the rest is this test's own list of ids).
BYTES_PER_JOB = 100
#: The same on the twin's in-memory log, whose bytes (submit and
#: terminal lines, about 480 B per job here) are heap: 1,353 B while it
#: kept record dicts and a ``Job`` per finished job.
TWIN_BYTES_PER_JOB = 700


def _bodies(n: int, seed: int = 1998) -> list:
    """``POST /jobs`` bodies shaped like the gateway benchmark's."""
    rng = random.Random(seed)
    return [json.dumps({"kind": "bench.inert", "user": rng.randrange(1000),
                        "n": i, "payload": "%x" % rng.getrandbits(
                            rng.randrange(64, 512))},
                       separators=(",", ":")).encode("ascii")
            for i in range(n)]


def _serve(core: GatewayCore, bodies: list, t0: float) -> list:
    """Submit, execute inertly and read back each job, as the benchmark's
    gateway child does; returns the ids."""
    ids = []
    for i, body in enumerate(bodies):
        now = t0 + i * 1e-3
        status, doc, _ = core.handle("POST", "/jobs", body, now)
        assert status == 201
        unit = core.work.next_unit()
        core.work.complete(str(unit["id"]), {"inert": True}, now)
        ids.append(doc["id"])
    for job_id in ids:
        status, _, _ = core.handle("GET", f"/jobs/{job_id}", b"", t0)
        assert status == 200
    return ids


def _retained_per_job(work: WorkQueue) -> float:
    """Traced bytes ``work`` retains per finished job over 2,000 jobs,
    after a warm-up; the heap holds no finished job."""
    core = GatewayCore("gw", work)
    _serve(core, _bodies(10, seed=1), 0.0)  # imports, the kinds registry
    warm, bodies = _bodies(500, seed=2), _bodies(2000)
    gc.collect()
    tracemalloc.start()
    try:
        # Traced from before the /events ring fills, so what it holds
        # is the same at both readings and cancels out.
        _serve(core, warm, 100.0)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        ids = _serve(core, bodies, 1000.0)
        gc.collect()
        per_job = (tracemalloc.get_traced_memory()[0] - before) / len(ids)
    finally:
        tracemalloc.stop()
    work.close()
    assert work.counts()["done"] == 2510
    assert len(work.jobs) == 0  # the live jobs: none
    return per_job


def test_a_finished_job_retains_at_most_100_bytes(tmp_path):
    per_job = _retained_per_job(WorkQueue(
        journal=FileJournal(str(tmp_path / "j.jsonl")), prefix="e2e"))
    assert per_job <= BYTES_PER_JOB, f"{per_job:.0f} B per finished job"


def test_a_finished_job_on_the_twins_log_retains_at_most_700_bytes():
    # The log's own bytes count here: they are the twin's heap.
    per_job = _retained_per_job(WorkQueue(journal=MemoryJournal(),
                                          prefix="e2e"))
    assert per_job <= TWIN_BYTES_PER_JOB, f"{per_job:.0f} B per finished job"


def test_replay_holds_only_live_jobs(tmp_path):
    # Replay streams the journal: at its peak it holds the index and one
    # line, not every record (28 B per finished job measured; 1,907 B
    # while replay parsed and kept every record).
    path = str(tmp_path / "j.jsonl")
    work = WorkQueue(journal=FileJournal(path), prefix="e2e")
    _serve(GatewayCore("gw", work), _bodies(2000), 0.0)
    work.close()
    WorkQueue(journal=FileJournal(path), prefix="e2e").close()  # warm
    gc.collect()
    tracemalloc.start()
    try:
        reborn = WorkQueue(journal=FileJournal(path), prefix="e2e")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reborn.close()
    assert reborn.counts()["done"] == 2000
    assert peak / 2000 <= BYTES_PER_JOB, f"{peak / 2000:.0f} B per job"

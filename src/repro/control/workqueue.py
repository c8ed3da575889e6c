"""The gateway's task-queue core: an app-agnostic, durable job store.

:class:`WorkQueue` is the hinge of the control plane. Upward it is a job
lifecycle store (``submit`` / ``get`` / ``cancel`` — what the HTTP
routers expose); downward it implements the scheduler's
:class:`~repro.core.services.scheduler.WorkSource` protocol
(``next_unit`` / ``requeue`` / ``complete``), so an unmodified
:class:`~repro.core.services.scheduler.SchedulerServer` can hand
externally-submitted jobs to computational clients exactly the way it
hands out internally-minted units. The queue is application-agnostic: a
job spec is any JSON object the executing client understands (the Ramsey
clients take their usual unit dicts; see
:func:`repro.ramsey.tasks.ramsey_job_spec`).

Durability is an append-only JSONL journal, flushed per accepted
operation: a SIGKILLed gateway process loses its sockets and its
scheduler state, never an accepted job — the journal bytes are already
in the kernel when the 201 leaves. On restart :meth:`replay` rebuilds
the store; jobs that were queued *or assigned* at the crash come back
queued (requeued, not dropped — the in-flight assignment died with the
scheduler's client table), finished and cancelled jobs stay finished and
cancelled. The journal is one record log: a file live
(:class:`FileJournal`), bytes in memory on the twin (``MemoryJournal``).

Every job value is rendered to JSON once, when it is journaled: the spec
at acceptance, the result at completion. Record lines are spliced from
those fragments, and so is the ``done`` line of the ``/events`` feed. A
job's terminal record carries the whole body ``GET /jobs/{id}`` serves,
and from then on the job *is* that byte range of the journal: the heap
holds live jobs only (DESIGN §13, "What a finished job holds").

Job lifecycle::

    submit -> queued -> assigned -> done
                 \\         |
                  +--------+--> cancelled   (cancel is idempotent)
"""

from __future__ import annotations

import json
from array import array
from collections import deque
from typing import Optional, Union

from ..core.services.kinds import ResultCheckError
from ..core.services.kinds import registry as kind_registry
from ..core.telemetry import Telemetry
from ..obs.events import EventLog
from ..obs.recordlog import RecordLog, _encode, _encode_str

__all__ = ["Job", "WorkQueue", "MemoryJournal", "FileJournal",
           "JOB_STATES"]

JOB_STATES = ("queued", "assigned", "done", "cancelled")
_TERMINAL = ("done", "cancelled")

#: :meth:`Job.to_dict`'s keys, in order.
_FIELDS = ("id", "state", "spec", "submitted_at", "finished_at", "result",
           "requeues")

#: ``GET /jobs`` lists at most this many ids, the newest; the queue
#: remembers no more than that of its submit order.
MAX_LISTED_JOBS = 100

#: Index slots a finished job may open past the end of the index beyond
#: one per live job. An id further out (``job-10**12`` in a hand-edited
#: journal) is held in a dict instead, so no id can size the index.
_MAX_GAP = 4096


class Job:
    """One live job and its lifecycle bookkeeping, held in memory (a
    finished job is the range of its body in the journal)."""

    __slots__ = ("id", "state", "spec", "result", "submitted_at",
                 "finished_at", "requeues", "trace", "_text")

    def __init__(self, job_id: str, spec: dict, submitted_at: float) -> None:
        self.id = job_id
        self.state = "queued"
        self.spec = spec
        self.result: Optional[dict] = None
        self.submitted_at = submitted_at
        self.finished_at: Optional[float] = None
        self.requeues = 0
        #: (trace_id, span_id) of the gateway ingress span that accepted
        #: this job — the root every downstream span parents on. Journaled
        #: with the submit record so the causal chain survives a restart.
        self.trace: Optional[tuple[int, int]] = None
        #: The spec's JSON as rendered for its submit record (None for
        #: a job replay brought back).
        self._text: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "state": self.state,
            "spec": self.spec,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "result": self.result,
            "requeues": self.requeues,
        }


def _field(name: str) -> property:
    return property(lambda self: json.loads(self.body)[name],
                    doc=f"The job's {name!r}, read back from its body.")


class _Finished:
    """A finished job as the bytes ``GET /jobs/{id}`` serves (``body``,
    newline included), built without parsing them. ``state`` is found in
    the body; the other fields read back from it, equal to what they
    were as JSON reads them (a tuple comes back a list)."""

    __slots__ = ("id", "body")
    spec = _field("spec")
    result = _field("result")
    submitted_at = _field("submitted_at")
    finished_at = _field("finished_at")
    requeues = _field("requeues")

    def __init__(self, job_id: str, body: bytes) -> None:
        self.id = job_id
        self.body = body

    @property
    def state(self) -> str:
        # Keys are sorted: only "submitted_at", a number, follows the
        # top-level "state", so the last match is the job's own.
        body = self.body
        at = body.rfind(b',"state":"') + 10
        return "done" if body.startswith(b'done"', at) else "cancelled"

    def to_dict(self) -> dict:
        doc = json.loads(self.body)
        return {key: doc[key] for key in _FIELDS}


def _body_span(line: bytes, record: dict) -> Optional[tuple[int, int]]:
    """Where a terminal record's ``job`` body lies in its ``line``:
    ``(start, length)``, or None for a record without one (written
    before bodies were journaled, or not in the shape this module
    writes). The shape is ``{"id":…,"op":…,"t":…,"job":{…}}``: id and op
    are strings and t a number, none of which can hold ``,"job":{``, so
    its first match is the body's key, and the body ends one ``}``
    before the newline."""
    if (len(record) != 4 or next(reversed(record)) != "job"
            or not isinstance(record["job"], dict)
            or not isinstance(record.get("op"), str)
            or not isinstance(record.get("t"), (int, float))
            or not line.endswith(b"}}\n")):
        return None
    start = line.find(b',"job":{') + 7
    return (start, len(line) - 2 - start) if start > 6 else None


#: The durable journal is the one record log (:mod:`repro.obs.recordlog`:
#: line format, durability point, damage rule) under its public name.
FileJournal = RecordLog
#: The simulated twin's journal (and a queue's default): the same log,
#: its bytes held in this process so a simulated restart replays them.
MemoryJournal = RecordLog.in_memory


class WorkQueue:
    """Durable job store + scheduler-facing work source (see module doc)."""

    def __init__(self, journal: Optional[RecordLog] = None,
                 prefix: str = "job") -> None:
        self.journal = MemoryJournal() if journal is None else journal
        self.prefix = prefix
        #: Jobs held in memory: the live ones (and a finished job replayed
        #: from a record without its body, until a GET renders it).
        self.jobs: dict[str, Job] = {}
        self._queue: deque[str] = deque()
        self._seq = 0
        #: Jobs per state, kept by every transition (:meth:`_move`).
        self._counts = dict.fromkeys(JOB_STATES, 0)
        #: The newest ids, submit order, for ``GET /jobs``.
        self._recent: deque[str] = deque(maxlen=MAX_LISTED_JOBS)
        #: Finished jobs: the body of ``prefix-N`` is ``_lengths[N-1]``
        #: bytes at ``_offsets[N-1]`` (-1: not held here). Any other id
        #: maps to its ``(offset, length)``, or to its rendered body if
        #: replay found no body in its record.
        self._offsets, self._lengths = array("q"), array("q")
        self._other: dict[str, Union[tuple[int, int], bytes]] = {}
        #: Clock for callers that can't pass ``now`` (the scheduler's
        #: ``complete(unit_id, result)`` two-arg protocol call). The
        #: owning driver installs its own clock — wall seconds live,
        #: simulated seconds in the twin.
        self.clock = None
        #: ``telemetry`` emits per-job lifecycle spans parented on the
        #: job's ingress trace when its tracer is on; ``events`` feeds
        #: the gateway's /events long-poll ring.
        self.telemetry = Telemetry()
        self.events = EventLog()
        self.component = "workqueue"
        #: Lifecycle meters (JSON-safe; shipped in node stats).
        self.submitted = 0
        self.completed = 0
        self.cancelled = 0
        self.requeued = 0
        self.results_dropped = 0
        self.results_rejected = 0
        self.replay()

    # -- observability hooks --------------------------------------------------
    def _now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def _span(self, name: str, now: float, parent, outcome: str = "ok",
              **args) -> None:
        tracer = self.telemetry.tracer
        if parent is None or not tracer.enabled:
            return
        tracer.instant(name, now, component=self.component,
                       parent=tuple(parent), outcome=outcome,
                       args=args or None)

    def _event(self, event: str, job_id: str, now: float,
               extra: str = "") -> None:
        """Feed one lifecycle event; ``extra`` is its further members,
        rendered (:meth:`EventLog.append`)."""
        self.events.append(event, job_id, round(now, 6), extra)

    def _move(self, job: Job, state: str) -> None:
        counts = self._counts
        counts[job.state] -= 1
        counts[state] += 1
        job.state = state

    # -- where a job lives -----------------------------------------------------
    def _slot(self, job_id: str) -> int:
        """The index slot of an id this queue mints (``prefix-N`` ->
        N - 1); -1 for any other id."""
        head, _, tail = job_id.rpartition("-")
        if (head == self.prefix and tail.isdigit() and tail.isascii()
                and tail[0] != "0"):
            return int(tail) - 1
        return -1

    def _held(self, job_id: str) -> Union[tuple[int, int], bytes, None]:
        """Where a finished job's body is, if the index holds it."""
        n = self._slot(job_id)
        if 0 <= n < len(self._offsets) and self._offsets[n] >= 0:
            return self._offsets[n], self._lengths[n]
        return self._other.get(job_id)

    def _index(self, job_id: str, offset: int, length: int) -> None:
        """Hold a finished job as the range of its body in the journal."""
        n, offsets, lengths = self._slot(job_id), self._offsets, self._lengths
        gap = n - len(offsets)
        if n < 0 or gap > len(self.jobs) + _MAX_GAP:
            self._other[job_id] = (offset, length)
            return
        if gap > 0:  # ids between are live, or lost with a damaged line
            pad = array("q", (-1,)) * gap
            offsets += pad
            lengths += pad
        if gap >= 0:
            offsets.append(offset)
            lengths.append(length)
        else:
            offsets[n] = offset
            lengths[n] = length

    def _forget(self, job_id: str) -> None:
        n = self._slot(job_id)
        if 0 <= n < len(self._offsets) and self._offsets[n] >= 0:
            self._offsets[n] = -1
        else:
            self._other.pop(job_id, None)

    def _finished(self, job_id: str) -> Optional[_Finished]:
        """A finished job the index holds, read back from the journal
        with one positional read; None for any other id."""
        held = self._held(job_id)
        if held is None:
            return None
        if isinstance(held, tuple):
            held = self.journal.read(*held) + b"\n"
        return _Finished(job_id, held)

    def replay(self) -> int:
        """Rebuild the store from the journal; returns the number of
        jobs that came back *queued* (i.e. requeued-not-dropped).

        The journaled meters (``submitted``/``completed``/``cancelled``)
        are recounted from the records, so they mean "in this queue's
        durable history" whether the queue is reborn in a fresh process
        or replayed in place; the other meters are process-lifetime.

        The journal is streamed, one line in memory at a time, and
        replay renders nothing: a job whose terminal record carries its
        body goes back into the index as that body's range; one whose
        record has none (written before bodies were journaled) keeps its
        values until its first :meth:`document` renders it."""
        self.jobs.clear()
        self._recent.clear()
        self._other.clear()
        self._offsets, self._lengths = array("q"), array("q")
        top = completed = cancelled = 0
        indexed = dict.fromkeys(_TERMINAL, 0)  # finished jobs not in .jobs
        for offset, line, record in self.journal.scan():
            op = record.get("op")
            job_id = record.get("id")
            if not isinstance(job_id, str):
                continue
            if op == "submit":
                if job_id not in self.jobs:
                    old = self._finished(job_id)
                    if old is None:
                        self._recent.append(job_id)
                    else:
                        # A second submit record reopens a finished job,
                        # in the index as it always has in memory.
                        indexed[old.state] -= 1
                        self._forget(job_id)
                spec = record.get("spec")
                job = Job(job_id, spec if isinstance(spec, dict) else {},
                          float(record.get("t", 0.0)))
                trace = record.get("trace")
                if (isinstance(trace, (list, tuple)) and len(trace) == 2):
                    # The causal chain survives the restart: the reborn
                    # gateway keeps parenting on the original ingress.
                    job.trace = (int(trace[0]), int(trace[1]))
                self.jobs[job_id] = job
                tail = job_id.rpartition("-")[2]
                if tail.isdigit():
                    top = max(top, int(tail))
            elif op in ("done", "cancel"):
                job = self.jobs.get(job_id)
                if job is None or job.state in _TERMINAL:
                    # Terminal states are final on replay exactly as they
                    # are live: a stray "done" record landing after a
                    # cancel (torn journal, hostile edit) must not
                    # resurrect the job, and vice versa.
                    continue
                state = "done" if op == "done" else "cancelled"
                if op == "done":
                    completed += 1
                else:
                    cancelled += 1
                span = _body_span(line, record)
                if span is not None:
                    del self.jobs[job_id]
                    self._index(job_id, offset + span[0], span[1])
                    indexed[state] += 1
                    continue
                job.state = state
                job.finished_at = record.get("t")
                if op == "done":
                    body = record.get("job")
                    job.result = (body.get("result") if isinstance(body, dict)
                                  else record.get("result"))
        self._seq = top
        self.completed, self.cancelled = completed, cancelled
        # Everything not terminal goes back in the queue, submit order,
        # and the per-state counts are rebuilt on the way.
        self._queue = queue = deque()
        counts = self._counts = {**dict.fromkeys(JOB_STATES, 0), **indexed}
        for job in self.jobs.values():
            if job.state in _TERMINAL:
                counts[job.state] += 1
            else:
                job.state = "queued"
                queue.append(job.id)
        counts["queued"] = len(queue)
        self.submitted = sum(counts.values())
        return len(queue)

    # -- job lifecycle (the HTTP routers' side) ------------------------------
    def submit(self, spec: dict, now: float,
               trace: Optional[tuple[int, int]] = None) -> Job:
        """Accept one job; the journal record is flushed before return.

        ``trace`` is the (trace_id, span_id) of the gateway's ingress
        span; it is journaled with the record and stamped into the unit
        handed out by :meth:`next_unit`, so every downstream span —
        scheduler assignment, client work slices across incarnations,
        requeues, completion — joins one causal chain.
        """
        return self._accept([spec], now, trace)[0]

    def submit_batch(self, specs: list[dict], now: float,
                     trace: Optional[tuple[int, int]] = None) -> list[Job]:
        """Accept N jobs with ONE journal flush (``POST /jobs/batch``).

        An ME algorithm pushing a generation of evaluations should not
        pay a flush per task: all submit records are written together
        and flushed once, then the jobs enter the queue in list order.
        Callers validate specs *before* calling — by the time we are
        here the whole batch is accepted.
        """
        return self._accept(specs, now, trace)

    def _accept(self, specs: list[dict], now: float,
                trace: Optional[tuple[int, int]]) -> list[Job]:
        """The one acceptance path: mint ids, journal every submit record
        with one flush, then — and only then — enqueue and announce.
        The caller's ingress span brackets the flush, so the flush
        records no span of its own."""
        jobs: list[Job] = []
        records: list[str] = []
        t_text = _encode(now)
        trace_text = ("" if trace is None else
                      f',"trace":{_encode([int(trace[0]), int(trace[1])])}')
        for spec in specs:
            self._seq += 1
            job = Job(f"{self.prefix}-{self._seq}", dict(spec), now)
            if trace is not None:
                job.trace = (int(trace[0]), int(trace[1]))
            # encode_line(record) to the byte: keys in sorted order.
            job._text = _encode(job.spec)
            records.append(
                f'{{"id":{_encode_str(job.id)},"op":"submit",'
                f'"spec":{job._text},"t":{t_text}{trace_text}}}\n')
            jobs.append(job)
        self.journal.append_many(records)
        for job in jobs:
            self.jobs[job.id] = job
            self._recent.append(job.id)
            self._queue.append(job.id)
            self.submitted += 1
            self._event("submitted", job.id, now)
        self._counts["queued"] += len(jobs)
        return jobs

    def get(self, job_id: str) -> Union[Job, _Finished, None]:
        """The job ``job_id`` names, or None. A finished job comes back
        as a read-only view of its journaled body."""
        return self.jobs.get(job_id) or self._finished(job_id)

    def document(self, job: Union[Job, _Finished]) -> Union[dict, bytes]:
        """What ``GET /jobs/{id}`` serves for ``job``: a finished job's
        body (bytes), a live job's :meth:`Job.to_dict`."""
        if isinstance(job, _Finished):
            return job.body
        if job.state in _TERMINAL:
            # Replayed from a record without its body: render it once and
            # hold the bytes instead of the values.
            body = (_encode(job.to_dict()) + "\n").encode("ascii")
            if self.jobs.get(job.id) is job:
                del self.jobs[job.id]
                self._other[job.id] = body
            return body
        return job.to_dict()

    def _finish(self, job: Job, state: str, now: float,
                result: Optional[dict] = None) -> str:
        """Journal and apply a terminal transition: ``done`` with
        ``result``, or ``cancelled``. The record carries the job's
        ``GET /jobs/{id}`` body as its last key, spliced from rendered
        fragments, and the job leaves the heap for the index. Returns
        the result as rendered there."""
        op = "done" if state == "done" else "cancel"
        id_text, t_text = _encode_str(job.id), _encode(now)
        result_text = _encode(result)
        body = (
            f'{{"finished_at":{t_text},"id":{id_text},'
            f'"requeues":{job.requeues},"result":{result_text},'
            f'"spec":{job._text or _encode(job.spec)},"state":"{state}",'
            f'"submitted_at":{_encode(job.submitted_at)}}}')
        head = f'{{"id":{id_text},"op":"{op}","t":{t_text},"job":'
        offset = self.journal.append(f"{head}{body}}}\n")
        if state == "cancelled" and job.state == "queued":
            try:
                self._queue.remove(job.id)
            except ValueError:
                pass
        self._move(job, state)
        job.result = result
        job.finished_at = now
        del self.jobs[job.id]
        self._index(job.id, offset + len(head), len(body))
        return result_text

    def cancel(self, job_id: str, now: float) -> Optional[Job]:
        """Cancel a job; idempotent (a second cancel is a no-op, not an
        error). Returns None for unknown ids. Cancelling a *done* job is
        also a no-op — the result already exists. An assigned job is
        marked cancelled here and its eventual completion is dropped."""
        job = self.jobs.get(job_id) or self._finished(job_id)
        if job is None:
            return None
        if job.state in _TERMINAL:
            return job
        self._finish(job, "cancelled", now)
        self.cancelled += 1
        self._span("job cancel", now, job.trace, id=job.id)
        self._event("cancelled", job.id, now,
                    f',"requeues":{job.requeues}')
        return job

    def counts(self) -> dict:
        return {**self._counts, "total": sum(self._counts.values())}

    def newest(self) -> list[str]:
        """The newest :data:`MAX_LISTED_JOBS` ids, oldest first."""
        return list(self._recent)

    # -- WorkSource protocol (the scheduler's side) --------------------------
    def next_unit(self) -> Optional[dict]:
        while self._queue:
            job_id = self._queue.popleft()
            job = self.jobs.get(job_id)
            if job is None or job.state != "queued":
                continue
            self._move(job, "assigned")
            now = self._now()
            self._span("job assign", now, job.trace, id=job.id)
            self._event("assigned", job.id, now)
            # The unit handed to clients is the spec plus the job id —
            # SCH_REPORT's unit_id is how completion finds its way back.
            unit = {**job.spec, "id": job.id}
            if job.trace is not None:
                # The trace context rides inside the unit dict itself, so
                # it crosses the SCH_WORK wire frame (and any journal or
                # checkpoint that round-trips the unit) with no protocol
                # change; `validate_unit` tolerates extra keys.
                unit["trace"] = list(job.trace)
            return unit
        return None

    def requeue(self, unit: dict) -> None:
        job = self.jobs.get(str(unit.get("id")))
        if job is None or job.state in _TERMINAL:
            return  # a cancelled in-flight unit dies here, silently
        self._move(job, "queued")
        job.requeues += 1
        self.requeued += 1
        now = self._now()
        self._span("job requeue", now, job.trace, outcome="requeue",
                   id=job.id, requeues=job.requeues)
        self._event("requeued", job.id, now,
                    f',"requeues":{job.requeues}')
        # Front of the queue: requeued units represent in-flight work.
        self._queue.appendleft(job.id)

    def complete(self, unit_id: str, result: dict,
                 now: Optional[float] = None) -> None:
        if now is None:
            now = self._now()
        unit_id = str(unit_id)
        job = self.jobs.get(unit_id) or self._finished(unit_id)
        if job is None:
            return
        if job.state == "cancelled":
            # Raced a cancel: the user said stop; drop the result.
            self.results_dropped += 1
            return
        if job.state == "done":
            return  # duplicate completion report
        check = kind_registry.checker_for(job.spec)
        if check is not None:
            try:
                check(job.spec, result)
            except ResultCheckError:
                # §3.1: distrust remote results. A completion that fails
                # its kind's sanity check is requeued for honest re-
                # execution, and nothing reaches the journal — as if the
                # report never arrived.
                self.results_rejected += 1
                if job.state == "assigned":
                    self._move(job, "queued")
                    self._queue.appendleft(job.id)
                # (state "queued" means a reaper already requeued it —
                # just count the rejection.)
                self._span("job result rejected", now, job.trace,
                           outcome="rejected", id=job.id)
                self._event("rejected", job.id, now)
                return
        result_text = self._finish(job, "done", now, result)
        self.completed += 1
        self._span("job done", now, job.trace, id=job.id)
        # Terminal events are self-contained: a feed consumer retires the
        # job without a GET /jobs/{id}. The line carries the result text
        # the journal record holds, whatever the caller does with its
        # dict afterwards.
        self._event("done", job.id, now,
                    f',"requeues":{job.requeues},"result":{result_text}')

    def __len__(self) -> int:
        return len(self._queue)

    def close(self) -> None:
        self.journal.close()

    def stats(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "requeued": self.requeued,
            "results_dropped": self.results_dropped,
            "results_rejected": self.results_rejected,
            "depth": len(self._queue),
            "journal_skipped": self.journal.skipped,
            **{f"state_{k}": v for k, v in self.counts().items()},
        }

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
cancelled.

On a line journal (:class:`FileJournal`) every job value is rendered to
JSON once, when it is journaled: the spec at acceptance, the result at
completion. Record lines are spliced from those fragments, and a job
that reaches a terminal state keeps only the bytes ``GET /jobs/{id}``
serves (DESIGN §13, "What a finished job holds").

Job lifecycle::

    submit -> queued -> assigned -> done
                 \\         |
                  +--------+--> cancelled   (cancel is idempotent)
"""

from __future__ import annotations

import json
from collections import deque
from typing import Optional, Union

from ..core.services.kinds import ResultCheckError
from ..core.services.kinds import registry as kind_registry
from ..obs.recordlog import RecordLog, _encode

__all__ = ["Job", "WorkQueue", "MemoryJournal", "FileJournal",
           "JOB_STATES"]

JOB_STATES = ("queued", "assigned", "done", "cancelled")
_TERMINAL = ("done", "cancelled")

#: :meth:`Job.to_dict`'s keys, in order.
_FIELDS = ("id", "state", "spec", "submitted_at", "finished_at", "result",
           "requeues")


class Job:
    """One submitted job and its lifecycle bookkeeping.

    ``spec`` and ``result`` are the job's values. A *compact* job — one
    that finished on a line journal — no longer holds them: it holds the
    JSON body of ``GET /jobs/{id}``, and ``spec``, ``result`` and
    :meth:`to_dict` read back from it: equal to what they were, as JSON
    reads them (a tuple comes back a list)."""

    __slots__ = ("id", "state", "submitted_at", "finished_at", "requeues",
                 "trace", "_spec", "_result", "_text")

    def __init__(self, job_id: str, spec: dict, submitted_at: float) -> None:
        self.id = job_id
        self.state = "queued"
        self.submitted_at = submitted_at
        self.finished_at: Optional[float] = None
        self.requeues = 0
        #: (trace_id, span_id) of the gateway ingress span that accepted
        #: this job — the root every downstream span parents on. Journaled
        #: with the submit record so the causal chain survives a restart.
        self.trace: Optional[tuple[int, int]] = None
        #: Both None once compact.
        self._spec = spec
        self._result: Optional[dict] = None
        #: The spec's JSON (str) as rendered for its submit record, while
        #: the job is live on a line journal; the whole ``GET /jobs/{id}``
        #: body (bytes, newline included) once compact; else None.
        self._text: Union[str, bytes, None] = None

    @property
    def spec(self) -> dict:
        doc = self._doc()
        return self._spec if doc is None else doc["spec"]

    @property
    def result(self) -> Optional[dict]:
        doc = self._doc()
        return self._result if doc is None else doc["result"]

    def _doc(self) -> Optional[dict]:
        """A compact job's body, parsed; None while it holds values."""
        text = self._text
        return json.loads(text) if isinstance(text, bytes) else None

    def _compact(self, id_text: str, t_text: str, result_text: str) -> None:
        """Become compact: splice the ``GET /jobs/{id}`` body (the bytes
        ``json_response(200, self.to_dict())`` carries) from rendered
        fragments and drop the values. ``finished_at`` must be the time
        ``t_text`` renders; the spec is rendered here only if it was not
        at acceptance (a job replay brought back queued)."""
        spec_text = (self._text if self._text is not None
                     else _encode(self._spec))
        self._text = (
            f'{{"finished_at":{t_text},"id":{id_text},'
            f'"requeues":{_encode(self.requeues)},"result":{result_text},'
            f'"spec":{spec_text},"state":"{self.state}",'
            f'"submitted_at":{_encode(self.submitted_at)}}}\n'
        ).encode("ascii")
        self._spec = self._result = None

    def to_dict(self) -> dict:
        doc = self._doc()
        if doc is not None:
            return {key: doc[key] for key in _FIELDS}
        return {
            "id": self.id,
            "state": self.state,
            "spec": self._spec,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "result": self._result,
            "requeues": self.requeues,
        }


class MemoryJournal:
    """In-process journal for the simulated twin: same record stream as
    :class:`FileJournal`, surviving a *simulated* gateway restart (the
    deterministic analogue of kernel page cache surviving a SIGKILL)."""

    def __init__(self) -> None:
        self._records: list[dict] = []

    def append(self, record: dict) -> None:
        self._records.append(record)

    def append_many(self, records: list[dict]) -> None:
        self._records.extend(records)

    def records(self) -> list[dict]:
        return list(self._records)

    def close(self) -> None:
        pass


#: The durable journal is the one record log (:mod:`repro.obs.recordlog`:
#: line format, durability point, damage rule) under its public name.
FileJournal = RecordLog


class WorkQueue:
    """Durable job store + scheduler-facing work source (see module doc)."""

    def __init__(self, journal=None, prefix: str = "job") -> None:
        self.journal = journal
        self.prefix = prefix
        self.jobs: dict[str, Job] = {}
        self._queue: deque[str] = deque()
        self._seq = 0
        #: Jobs per state, kept by every transition (:meth:`_move`).
        self._counts = dict.fromkeys(JOB_STATES, 0)
        #: A line journal: render each job value once, splice record
        #: lines from the fragments, keep finished jobs compact. The
        #: in-memory twin journal keeps objects.
        self._lines = isinstance(journal, FileJournal)
        #: Clock for callers that can't pass ``now`` (the scheduler's
        #: ``complete(unit_id, result)`` two-arg protocol call). The
        #: owning driver installs its own clock — wall seconds live,
        #: simulated seconds in the twin.
        self.clock = None
        #: Observability hooks, both optional and off by default so the
        #: queue costs nothing when untelemetered: ``telemetry`` emits
        #: per-job lifecycle spans parented on the job's ingress trace,
        #: ``events`` feeds the gateway's /events long-poll ring.
        self.telemetry = None
        self.events = None
        self.component = "workqueue"
        #: Lifecycle meters (JSON-safe; shipped in node stats).
        self.submitted = 0
        self.completed = 0
        self.cancelled = 0
        self.requeued = 0
        self.results_dropped = 0
        self.results_rejected = 0
        if journal is not None:
            self.replay()

    # -- observability hooks --------------------------------------------------
    def _now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def _span(self, name: str, now: float, parent, outcome: str = "ok",
              **args) -> None:
        tel = self.telemetry
        if tel is None or not tel.tracer.enabled or parent is None:
            return
        tel.tracer.instant(name, now, component=self.component,
                           parent=tuple(parent), outcome=outcome,
                           args=args or None)

    def _event(self, event: str, job_id: str, now: float, **extra) -> None:
        if self.events is not None:
            self.events.append({"event": event, "job": job_id,
                                "t": round(now, 6), **extra})

    def _move(self, job: Job, state: str) -> None:
        counts = self._counts
        counts[job.state] -= 1
        counts[state] += 1
        job.state = state

    def replay(self) -> int:
        """Rebuild the store from the journal; returns the number of
        jobs that came back *queued* (i.e. requeued-not-dropped).

        The journaled meters (``submitted``/``completed``/``cancelled``)
        are recounted from the records, so they mean "in this queue's
        durable history" whether the queue is reborn in a fresh process
        or replayed in place; the other meters are process-lifetime.

        Replay renders nothing: a job that comes back finished keeps its
        parsed values until its first :meth:`document` renders it."""
        self.jobs.clear()
        top = completed = cancelled = 0
        for record in self.journal.records():
            op = record.get("op")
            job_id = record.get("id")
            if op == "submit" and isinstance(job_id, str):
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
            elif job_id in self.jobs:
                job = self.jobs[job_id]
                if job.state in _TERMINAL:
                    # Terminal states are final on replay exactly as they
                    # are live: a stray "done" record landing after a
                    # cancel (torn journal, hostile edit) must not
                    # resurrect the job, and vice versa.
                    continue
                if op == "done":
                    job.state = "done"
                    job._result = record.get("result")
                    job.finished_at = record.get("t")
                    completed += 1
                elif op == "cancel":
                    job.state = "cancelled"
                    job.finished_at = record.get("t")
                    cancelled += 1
        self._seq = top
        self.submitted = len(self.jobs)
        self.completed, self.cancelled = completed, cancelled
        # Everything not terminal goes back in the queue, submit order,
        # and the per-state counts are rebuilt on the way.
        self._queue = queue = deque()
        counts = self._counts = dict.fromkeys(JOB_STATES, 0)
        for job in self.jobs.values():
            if job.state in _TERMINAL:
                counts[job.state] += 1
            else:
                job.state = "queued"
                queue.append(job.id)
        counts["queued"] = len(queue)
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
        # No span args: the hot path; the ingress span already names the job.
        return self._accept([spec], now, trace, None)[0]

    def submit_batch(self, specs: list[dict], now: float,
                     trace: Optional[tuple[int, int]] = None) -> list[Job]:
        """Accept N jobs with ONE journal flush (``POST /jobs/batch``).

        An ME algorithm pushing a generation of evaluations should not
        pay a flush per task: all submit records are written together
        and flushed once, then the jobs enter the queue in list order.
        Callers validate specs *before* calling — by the time we are
        here the whole batch is accepted.
        """
        return self._accept(specs, now, trace, {"jobs": len(specs)})

    def _accept(self, specs: list[dict], now: float,
                trace: Optional[tuple[int, int]],
                span_args: Optional[dict]) -> list[Job]:
        """The one acceptance path: mint ids, journal every submit record
        with one flush, then — and only then — enqueue and announce."""
        jobs: list[Job] = []
        records: list = []
        if self._lines:
            t_text = _encode(now)
            trace_text = ("" if trace is None else
                          f',"trace":{_encode([int(trace[0]), int(trace[1])])}')
        for spec in specs:
            self._seq += 1
            job = Job(f"{self.prefix}-{self._seq}", dict(spec), now)
            if trace is not None:
                job.trace = (int(trace[0]), int(trace[1]))
            if self._lines:
                # encode_line(record) to the byte: keys in sorted order.
                job._text = _encode(job._spec)
                records.append(
                    f'{{"id":{_encode(job.id)},"op":"submit",'
                    f'"spec":{job._text},"t":{t_text}{trace_text}}}\n')
            else:
                record = {"op": "submit", "id": job.id, "spec": job._spec,
                          "t": now}
                if trace is not None:
                    record["trace"] = job.trace  # json renders it as a list
                records.append(record)
            jobs.append(job)
        if self.journal is not None:
            self.journal.append_many(records)
        tel = self.telemetry
        if (jobs and tel is not None and jobs[0].trace is not None
                and tel.tracer.enabled):
            tel.tracer.instant("journal flush", now,
                               component=self.component,
                               parent=jobs[0].trace, args=span_args)
        for job in jobs:
            self.jobs[job.id] = job
            self._queue.append(job.id)
            self.submitted += 1
            self._event("submitted", job.id, now)
        self._counts["queued"] += len(jobs)
        return jobs

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def document(self, job: Job) -> Union[dict, bytes]:
        """What ``GET /jobs/{id}`` serves for ``job``: a finished job's
        body (bytes) on a line journal — rendered here, once, for a job
        replay brought back finished — else :meth:`Job.to_dict`."""
        if self._lines and job.state in _TERMINAL:
            if not isinstance(job._text, bytes):
                job._text = (_encode(job.to_dict()) + "\n").encode("ascii")
                job._spec = job._result = None
            return job._text
        return job.to_dict()

    def _finish(self, job: Job, state: str, now: float,
                result: Optional[dict] = None) -> None:
        """Journal and apply a terminal transition: ``done`` with
        ``result``, or ``cancelled``. On a line journal the record line
        and the compact job's body share one rendering of every value."""
        op = "done" if state == "done" else "cancel"
        if self._lines:
            id_text, t_text = _encode(job.id), _encode(now)
            result_text = _encode(result)
            self.journal.append(
                f'{{"id":{id_text},"op":"{op}",'
                + (f'"result":{result_text},' if op == "done" else "")
                + f'"t":{t_text}}}\n')
        elif self.journal is not None:
            record = {"op": op, "id": job.id}
            if op == "done":
                record["result"] = result
            record["t"] = now
            self.journal.append(record)
        if state == "cancelled" and job.state == "queued":
            try:
                self._queue.remove(job.id)
            except ValueError:
                pass
        self._move(job, state)
        job._result = result
        job.finished_at = now
        if self._lines:
            job._compact(id_text, t_text, result_text)

    def cancel(self, job_id: str, now: float) -> Optional[Job]:
        """Cancel a job; idempotent (a second cancel is a no-op, not an
        error). Returns None for unknown ids. Cancelling a *done* job is
        also a no-op — the result already exists. An assigned job is
        marked cancelled here and its eventual completion is dropped."""
        job = self.jobs.get(job_id)
        if job is None:
            return None
        if job.state in _TERMINAL:
            return job
        self._finish(job, "cancelled", now)
        self.cancelled += 1
        self._span("job cancel", now, job.trace, id=job.id)
        self._event("cancelled", job.id, now, requeues=job.requeues)
        return job

    def counts(self) -> dict:
        return {**self._counts, "total": len(self.jobs)}

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
            unit = {**job._spec, "id": job.id}
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
        self._event("requeued", job.id, now, requeues=job.requeues)
        # Front of the queue: requeued units represent in-flight work.
        self._queue.appendleft(job.id)

    def complete(self, unit_id: str, result: dict,
                 now: Optional[float] = None) -> None:
        if now is None:
            now = self.clock() if self.clock is not None else 0.0
        job = self.jobs.get(str(unit_id))
        if job is None:
            return
        if job.state == "cancelled":
            # Raced a cancel: the user said stop; drop the result.
            self.results_dropped += 1
            return
        if job.state == "done":
            return  # duplicate completion report
        check = kind_registry.checker_for(job._spec)
        if check is not None:
            try:
                check(job._spec, result)
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
        self._finish(job, "done", now, result)
        self.completed += 1
        self._span("job done", now, job.trace, id=job.id)
        # Terminal events are self-contained (by reference, not copied):
        # a feed consumer retires the job without a GET /jobs/{id}.
        self._event("done", job.id, now, result=result,
                    requeues=job.requeues)

    def __len__(self) -> int:
        return len(self._queue)

    def close(self) -> None:
        if self.journal is not None:
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
            "journal_skipped": getattr(self.journal, "skipped", 0),
            **{f"state_{k}": v for k, v in self.counts().items()},
        }

"""The Ramsey computational client (the "A" boxes in Figure 1).

A client:

* obtains work units from a scheduling server (``SCH_HELLO`` →
  ``SCH_WORK``) and reports progress and rate periodically
  (``SCH_REPORT`` → ``SCH_DIRECTIVE``), switching schedulers when its
  current one goes silent;
* runs its heuristic incrementally between messages through a pluggable
  :class:`ComputeEngine` — the *real* engine executes the actual
  op-counted search kernels, the *model* engine burns simulated host
  cycles at the host's effective speed (SC98-scale runs);
* synchronizes its best-so-far result through the Gossip service
  (volatile-but-replicated state, §3.1.2) with a "lower energy wins"
  comparator;
* checkpoints genuine counter-examples to the persistent state manager
  (persistent state) where they are independently verified; and
* forwards its performance records to a logging server before they are
  discarded (§3.1.3).
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from ..core.component import Component, Effect, LogLine, Send, SetTimer
from ..core.gossip.agent import GossipAgent
from ..core.policy import RetryPolicy
from ..core.gossip.state import StateRecord, StateStore
from ..core.linguafranca.messages import Message
from ..core.services.logging import LOG_APPEND
from ..core.services.persistent import PST_DENIED, PST_STORE, PST_STORE_OK
from ..core.services.scheduler import (
    SCH_ACK,
    SCH_DIRECTIVE,
    SCH_HELLO,
    SCH_REPORT,
    SCH_WORK,
)
# EngineStatus lives beside KindEngine (so non-Ramsey engines need not
# import this module); re-exported here, where it has always been public.
from ..core.services.kinds import EngineStatus, kind_of
from .graphs import OpCounter
from .heuristics import SearchSnapshot, TabuSearch, make_search
from .tasks import validate_unit

__all__ = [
    "RamseyClient",
    "ComputeEngine",
    "RealEngine",
    "ModelEngine",
    "EngineStatus",
    "ramsey_comparator",
    "RAMSEY_BEST",
]

RAMSEY_BEST = "RAMSEY_BEST"

T_WORK = "cli:work"
T_REPORT = "cli:report"
T_HELLO = "cli:hello"

# Labels on the client's reliable sends (routed in on_send_failed).
L_HELLO = "cli:hello"
L_CHECKPOINT = "cli:checkpoint"


def ramsey_comparator(a: StateRecord, b: StateRecord) -> int:
    """Freshness for RAMSEY_BEST records: a *better* search result wins
    regardless of recency — bigger problem solved first, then lower
    energy, then more ops invested; stamps only break exact ties."""
    ka = (a.data.get("k", 0), -a.data.get("energy", float("inf")),
          a.data.get("ops", 0.0), a.stamp, a.seq, a.origin)
    kb = (b.data.get("k", 0), -b.data.get("energy", float("inf")),
          b.data.get("ops", 0.0), b.stamp, b.seq, b.origin)
    return (ka > kb) - (ka < kb)


class ComputeEngine(Protocol):
    """What the client drives between messages."""

    def load(self, unit: dict, rng: np.random.Generator) -> None: ...

    def advance(self, ops_budget: float) -> EngineStatus: ...

    def progress(self) -> dict: ...


class RealEngine:
    """Runs the actual op-counted heuristic kernels.

    Used by the runnable examples and the Java/throughput benchmarks; too
    slow (by design — it does the real math) for 300-host 12-hour
    simulations.

    With a compute ``lane`` each tabu advance is offloaded as one
    :class:`repro.parallel.StepBatch` — the search state migrates to a
    pool worker, steps there through the vectorized kernels, and comes
    back bit-identical to having stepped inline (the batch loop checks
    the same ops/steps/found boundaries between steps that the inline
    loop does). Non-tabu heuristics always step inline.
    """

    def __init__(self, max_steps_per_advance: int = 2000, lane=None) -> None:
        self.max_steps_per_advance = max_steps_per_advance
        self.lane = lane
        self.search = None
        self.unit: Optional[dict] = None
        self.ops = OpCounter()
        self._reported_found = False

    def load(self, unit: dict, rng: np.random.Generator) -> None:
        validate_unit(unit)
        self.unit = unit
        self.ops = OpCounter()
        self._reported_found = False
        self.search = make_search(
            unit["heuristic"], unit["k"], unit["n"], rng, ops=self.ops
        )
        resume = unit.get("resume")
        if isinstance(resume, dict) and "coloring" in resume:
            try:
                self.search.restore(SearchSnapshot.from_dict(resume))
            except (KeyError, ValueError, TypeError):
                pass

    def advance(self, ops_budget: float) -> EngineStatus:
        assert self.search is not None and self.unit is not None
        start_ops = self.ops.ops
        if self.lane is not None and isinstance(self.search, TabuSearch):
            from ..parallel import StepBatch

            outcome = self.lane.run(StepBatch(
                self.search.export_state(),
                max_steps=self.max_steps_per_advance,
                ops_budget=ops_budget))
            self.search = TabuSearch.from_state(outcome.state, ops=self.ops)
            self.ops.add(outcome.ops)
        else:
            steps = 0
            while (
                self.ops.ops - start_ops < ops_budget
                and steps < self.max_steps_per_advance
                and not self.search.found
            ):
                self.search.step()
                steps += 1
        done_ops = self.ops.ops - start_ops
        found = None
        if self.search.found and not self._reported_found:
            self._reported_found = True
            found = {
                "k": self.unit["k"],
                "n": self.unit["n"],
                "coloring": self.search.snapshot().best_coloring,
            }
        exhausted = self.ops.ops >= self.unit["ops_budget"] or self.search.found
        return EngineStatus(
            ops_done=float(done_ops),
            energy=float(self.search.energy),
            best_energy=float(self.search.best_energy),
            found=found,
            done=exhausted,
        )

    def progress(self) -> dict:
        assert self.search is not None
        return self.search.snapshot().to_dict()

    def apply_params(self, params: dict) -> bool:
        """Scheduler control directives (§3.1.1): algorithm-specific
        parameter pushes. Currently: ``reheat`` for annealing."""
        from .heuristics import Annealing

        if params.get("reheat") and isinstance(self.search, Annealing):
            self.search.temperature = self.search.t_start
            return True
        return False


class ModelEngine:
    """Synthetic search progress for SC98-scale simulation.

    Burns exactly the ops the host delivers; energy follows a calibrated
    decay toward a floor (for the paper's k=43, n=5 target the floor is
    positive: SC98 found no new bound, and neither does the model). The
    shape — fast early descent, long stubborn tail — matches what the
    real kernels produce on small instances.
    """

    def __init__(self, energy0: float = 5000.0, floor: float = 3.0,
                 decay_ops: float = 5e10) -> None:
        self.energy0 = energy0
        self.floor = floor
        self.decay_ops = decay_ops
        self.unit: Optional[dict] = None
        self.total_ops = 0.0
        self.energy = energy0
        self.best_energy = energy0
        self._rng: Optional[np.random.Generator] = None

    def load(self, unit: dict, rng: np.random.Generator) -> None:
        validate_unit(unit)
        self.unit = unit
        self._rng = rng
        resume = unit.get("resume")
        self.total_ops = float(resume.get("ops", 0.0)) if isinstance(resume, dict) else 0.0
        self._recompute()
        self.best_energy = self.energy

    def _recompute(self) -> None:
        import math

        decayed = (self.energy0 - self.floor) * math.exp(-self.total_ops / self.decay_ops)
        noise = 1.0
        if self._rng is not None:
            noise = 1.0 + 0.05 * float(self._rng.standard_normal())
        self.energy = max(self.floor, self.floor + decayed * max(noise, 0.0))

    def advance(self, ops_budget: float) -> EngineStatus:
        assert self.unit is not None
        self.total_ops += max(ops_budget, 0.0)
        self._recompute()
        self.best_energy = min(self.best_energy, self.energy)
        done = self.total_ops >= self.unit["ops_budget"]
        return EngineStatus(
            ops_done=max(ops_budget, 0.0),
            energy=self.energy,
            best_energy=self.best_energy,
            found=None,
            done=done,
        )

    def progress(self) -> dict:
        return {"ops": self.total_ops, "best_energy": self.best_energy}


def rotated(items: list[str], idx: int) -> list[str]:
    """``items`` starting at position ``idx``: how worlds hand the idx-th
    client its own first-choice server out of a shared contact list."""
    if not items:
        return []
    shift = idx % len(items)
    return items[shift:] + items[:shift]


class RamseyClient(Component):
    """One computational client process."""

    def __init__(
        self,
        name: str,
        schedulers: list[str],
        engine: ComputeEngine,
        infra: str = "unix",
        loggers: Optional[list[str]] = None,
        persistent: Optional[str] = None,
        gossip_well_known: Optional[list[str]] = None,
        work_period: float = 30.0,
        report_period: float = 60.0,
        hello_retry: float = 20.0,
        sched_dead_factor: float = 3.0,
        seed: int = 0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(name)
        if not schedulers:
            raise ValueError("client needs at least one scheduler contact")
        self.schedulers = list(schedulers)
        self.engine = engine
        self.infra = infra
        self.loggers = list(loggers or [])
        self.persistent = persistent
        self.gossip_well_known = list(gossip_well_known or [])
        self.work_period = work_period
        self.report_period = report_period
        self.hello_retry = hello_retry
        self.sched_dead_factor = sched_dead_factor
        self.seed = seed
        #: Retransmission for hellos and checkpoints (driver-owned loop;
        #: the client only decides what a give-up means).
        self.retry = retry or RetryPolicy(max_attempts=3)
        self._sched_idx = 0
        self.unit: Optional[dict] = None
        self.store: Optional[StateStore] = None
        self.agent: Optional[GossipAgent] = None
        self._rng = np.random.default_rng(seed)
        self._last_work_mark = 0.0
        self._interval_ops = 0.0
        self._total_ops = 0.0
        self._last_directive = 0.0
        self._unit_done = False
        self.counter_examples_found = 0
        self.units_done = 0
        self.checkpoint_acks = 0
        self.checkpoint_denials = 0
        self.checkpoint_give_ups = 0
        #: Site label for per-site delivered-vs-available accounting
        #: (DESIGN §14); the live topology assigns it via node options.
        self.site = ""

    # -- helpers ------------------------------------------------------------
    @property
    def scheduler(self) -> str:
        return self.schedulers[self._sched_idx % len(self.schedulers)]

    def _rotate_scheduler(self) -> None:
        self._sched_idx += 1

    def _hello(self) -> list[Effect]:
        return [Send(self.scheduler, Message(
            mtype=SCH_HELLO, sender=self.contact, body={"infra": self.infra}),
            retry=self.retry, label=L_HELLO)]

    def _checkpoint(self, found: dict) -> list[Effect]:
        assert self.persistent is not None
        key = f"ramsey/r{found['n']}/k{found['k']}"
        return [Send(self.persistent, Message(
            mtype=PST_STORE, sender=self.contact,
            body={"key": key, "object": found}),
            retry=self.retry, label=L_CHECKPOINT)]

    # -- lifecycle ------------------------------------------------------------
    def on_start(self, now: float) -> list[Effect]:
        effects: list[Effect] = []
        if self.gossip_well_known:
            self.store = StateStore(self.contact)
            self.store.register(RAMSEY_BEST, comparator=ramsey_comparator)
            self.agent = GossipAgent(self.store, self.gossip_well_known,
                                     retry=self.retry)
            effects.extend(self.agent.on_start(now, self.contact))
        self._last_work_mark = now
        self._last_directive = now
        effects.extend(self._hello())
        effects.append(SetTimer(T_WORK, self.work_period))
        effects.append(SetTimer(T_REPORT, self.report_period))
        effects.append(SetTimer(T_HELLO, self.hello_retry))
        return effects

    # -- messages ------------------------------------------------------------
    def on_message(self, message: Message, now: float) -> list[Effect]:
        if self.agent is not None and GossipAgent.handles(message.mtype):
            return self.agent.on_message(message, now, self.contact)
        if message.mtype == SCH_WORK:
            self._last_directive = now
            # Acknowledge the assignment unconditionally — including
            # duplicates and mid-unit deliveries. The scheduler sends
            # unit-carrying assignments reliably and requeues the unit if
            # the ACK never arrives; a silent client would make it clone
            # work the client is actually running.
            ack = self._ack(message)
            if self.unit is not None and not self._unit_done:
                # Already mid-unit (e.g. restored from a checkpoint, or a
                # duplicate reply): keep the work in hand, don't discard it.
                return ack
            return ack + self._take_unit(message.body.get("unit"), now)
        if message.mtype == SCH_DIRECTIVE:
            self._last_directive = now
            ack = self._ack(message)
            action = message.body.get("action")
            if action in ("new_work", "migrate"):
                return ack + self._take_unit(message.body.get("unit"), now)
            params = message.body.get("params")
            if isinstance(params, dict) and hasattr(self.engine, "apply_params"):
                # Algorithm-aware control directive (§3.1.1): the scheduler
                # tunes the running heuristic (e.g. tells a stalled
                # annealer to reheat).
                if self.engine.apply_params(params):
                    return ack + [LogLine(f"applied scheduler params {params}")]
            return ack
        if message.mtype == PST_STORE_OK:
            self.checkpoint_acks += 1
            return []
        if message.mtype == PST_DENIED:
            self.checkpoint_denials += 1
            return [LogLine(
                f"persistent store denied: {message.body.get('reason')}",
                level="warning")]
        return []

    def _ack(self, message: Message) -> list[Effect]:
        """Reply ``SCH_ACK`` to a correlated (reliable) assignment."""
        if message.req_id is None:
            return []
        return [Send(message.sender, message.reply(
            SCH_ACK, sender=self.contact,
            body={"unit_id": (message.body.get("unit") or {}).get("id")}))]

    def _take_unit(self, unit: Optional[dict], now: float) -> list[Effect]:
        if unit is None:
            # A drained queue. The done flag goes too, or the next report
            # would complete whatever unit is on its way (DESIGN §13).
            self.unit = None
            self._unit_done = False
            return []
        try:
            self.engine.load(unit, np.random.default_rng(
                (self.seed, int(unit.get("seed", 0)))))
        except (ValueError, KeyError) as exc:
            # Report the refused unit done (DESIGN §13): held, it would
            # come back on every hello. A rate of None records no rate.
            self.unit = None
            return [LogLine(f"rejected bad unit: {exc}", level="warning"),
                    Send(self.scheduler, Message(
                        mtype=SCH_REPORT, sender=self.contact,
                        body={"unit_id": unit.get("id"), "rate": None,
                              "infra": self.infra, "done": True,
                              "result": {"error": str(exc)}}))]
        self.unit = unit
        self._unit_done = False
        self._last_work_mark = now
        tracer = self.telemetry.tracer
        if tracer.enabled and unit.get("trace"):
            # Join the job's end-to-end trace: the gateway's ingress
            # context rides inside the unit dict, so this incarnation's
            # work links back to the original POST /jobs.
            tracer.instant("job accept", now, component=self.name,
                           parent=tuple(unit["trace"]),
                           args={"unit_id": unit.get("id")})
        return []

    # -- timers ------------------------------------------------------------
    def on_timer(self, key: str, now: float) -> list[Effect]:
        if self.agent is not None and GossipAgent.handles_timer(key):
            return self.agent.on_timer(key, now, self.contact)
        if key == T_WORK:
            return self._work_slice(now) + [SetTimer(T_WORK, self.work_period)]
        if key == T_REPORT:
            return self._report(now) + [SetTimer(T_REPORT, self.report_period)]
        if key == T_HELLO:
            effects: list[Effect] = [SetTimer(T_HELLO, self.hello_retry)]
            silent = now - self._last_directive > self.sched_dead_factor * self.report_period
            if silent:
                # Current scheduler presumed dead: switch (the Condor lesson,
                # §5.4: clients must find a viable scheduler on their own).
                self._rotate_scheduler()
                self._last_directive = now
                effects.extend(self._hello())
                effects.append(LogLine(f"scheduler silent; trying {self.scheduler}"))
            elif self.unit is None:
                effects.extend(self._hello())
            return effects
        return []

    def on_send_failed(self, send: Send, now: float) -> list[Effect]:
        if self.agent is not None and GossipAgent.handles_fail(send.label):
            return self.agent.on_send_failed(send, now, self.contact)
        if send.label == L_HELLO:
            # Scheduler unreachable through the whole retry policy:
            # rotate immediately instead of waiting out the T_HELLO
            # silence watchdog (the Condor lesson, §5.4).
            self._rotate_scheduler()
            self._last_directive = now
            return [LogLine(f"scheduler {send.dst} unreachable; "
                            f"trying {self.scheduler}"),
                    *self._hello()]
        if send.label == L_CHECKPOINT:
            # A counter-example must never be lost to a transient outage
            # of the persistent state manager: keep resubmitting (the
            # store is idempotent per key).
            self.checkpoint_give_ups += 1
            return [LogLine("persistent store unreachable; "
                            "re-sending checkpoint", level="warning"),
                    Send(send.dst, send.message, retry=self.retry,
                         label=L_CHECKPOINT)]
        return []

    def _work_slice(self, now: float) -> list[Effect]:
        elapsed = now - self._last_work_mark
        self._last_work_mark = now
        if self.unit is None or self._unit_done or elapsed <= 0:
            return []
        assert self.runtime is not None
        ops_budget = self.runtime.speed() * elapsed
        tracer = self.telemetry.tracer
        work_span = None
        if tracer.enabled and self.unit.get("trace"):
            work_span = tracer.begin(
                "job work", component=self.name,
                parent=tuple(self.unit["trace"]), start=now, mtype="work")
        status = self.engine.advance(ops_budget)
        if work_span is not None:
            work_span.args["unit_id"] = self.unit.get("id")
            work_span.args["ops"] = float(status.ops_done)
            tracer.finish(work_span, self.runtime.now())
            if status.done:
                tracer.instant("job complete", self.runtime.now(),
                               component=self.name,
                               parent=tuple(self.unit["trace"]),
                               args={"unit_id": self.unit.get("id")})
        self._interval_ops += status.ops_done
        self._total_ops += status.ops_done
        effects: list[Effect] = []
        # Best-so-far gossip and counter-example checkpointing are
        # Ramsey-specific; other app kinds run through this same slice
        # loop but report results through the work queue alone.
        if self.store is not None and kind_of(self.unit) == "ramsey":
            best = self.store.get_data(RAMSEY_BEST)
            mine = {
                "k": self.unit["k"],
                "n": self.unit["n"],
                "energy": status.best_energy,
                "ops": self._total_ops,
                "origin": self.contact,
            }
            rec = StateRecord(RAMSEY_BEST, mine, now, self.contact, 0)
            cur = self.store.get(RAMSEY_BEST)
            if cur is None or ramsey_comparator(rec, cur) > 0:
                self.store.set_local(RAMSEY_BEST, mine, now)
        if status.found is not None:
            self.counter_examples_found += 1
            effects.append(LogLine(
                f"counter-example found for R({status.found['n']}) on "
                f"k={status.found['k']}"))
            if self.persistent is not None:
                effects.extend(self._checkpoint(status.found))
            if self.agent is not None and self.store is not None:
                effects.extend(self.agent.push(self.contact))
        if status.done:
            self._unit_done = True
            self.units_done += 1
        return effects

    def _report(self, now: float) -> list[Effect]:
        rate = self._interval_ops / self.report_period if self.report_period > 0 else 0.0
        effects: list[Effect] = []
        body = {
            "unit_id": self.unit["id"] if self.unit else None,
            "rate": rate,
            "ops": self._interval_ops,
            "infra": self.infra,
            "done": self._unit_done,
            "progress": self.engine.progress() if self.unit else {},
        }
        if self._unit_done and self.unit is not None:
            # Engines that mint a structured result (explore evaluations)
            # ship it verbatim; the classic engines report progress and
            # the getattr misses, keeping their reports byte-identical.
            produce = getattr(self.engine, "result", None)
            result = produce() if callable(produce) else None
            body["result"] = (result if result is not None
                              else {"progress": self.engine.progress()})
        effects.append(Send(self.scheduler, Message(
            mtype=SCH_REPORT, sender=self.contact, body=body)))
        # Forward the performance record before discarding it (§3.1.3).
        perf = {"k": "perf", "d": {
            "rate": rate, "ops": self._interval_ops, "infra": self.infra,
            "host": self.runtime.host_name() if self.runtime else "?",
        }}
        for logger in self.loggers:
            effects.append(Send(logger, Message(
                mtype=LOG_APPEND, sender=self.contact, body={"records": [perf]})))
        self._interval_ops = 0.0
        return effects

"""The ME driver as a simulated-time actor.

A :class:`~repro.control.scenario.Scenario` with an ``algo`` runs on the
twin as an :class:`MEDriverComponent`: the identical
:mod:`repro.explore.drivers` object the live pump uses, pushing through
``POST /jobs/batch`` frames and retiring jobs from the ``/events`` feed
of the unchanged :class:`~repro.control.sim.GatewayComponent` — the
sans-IO mirror of :class:`~repro.explore.queue.ExploreQueue` +
``run_driver``, its results the true objective values.
"""

from __future__ import annotations

from typing import Optional

from ..core.component import Component, Effect, Send, SetTimer
from ..core.linguafranca.messages import Message
from ..control.sim import GW_REQ, GW_RES
from ..obs.events import parse_jsonl
from .queue import FeedConsumer

__all__ = ["MEDriverComponent"]

T_POLL = "me:poll"


class MEDriverComponent(Component, FeedConsumer):
    """The ME algorithm as a sim component (the EMEWS pump, event-driven):
    push the initial batch, poll /events every :attr:`POLL` simulated
    seconds, feed the driver each retired result, push its follow-ups.
    The feed bookkeeping is the :class:`~repro.explore.queue.FeedConsumer`
    the live :class:`~repro.explore.queue.ExploreQueue` runs; the GW_REQ
    framing and the poll timer are this component's own."""

    POLL = 0.25

    def __init__(self, name: str, gateway: str, driver) -> None:
        Component.__init__(self, name)
        FeedConsumer.__init__(self)
        self.gateway = gateway
        self.driver = driver
        self._rid = 0
        #: rid -> the specs of a batch push | None for an /events read.
        self._inflight: dict[int, Optional[list]] = {}
        self._events_pending = False
        #: Sim-times at which follow-up generations went out (ME round
        #: trips) and at which the driver finished.
        self.rounds: list[float] = []
        self.finished_at: Optional[float] = None
        self.batch_rejected = 0

    # -- request plumbing -----------------------------------------------------
    def _request(self, method: str, path: str,
                 specs: Optional[list] = None) -> Send:
        self._rid += 1
        self._inflight[self._rid] = specs
        body = None if specs is None else {"specs": specs}
        return Send(self.gateway, Message(
            mtype=GW_REQ, sender=self.contact,
            body={"method": method, "path": path, "body": body,
                  "rid": self._rid}))

    def _push(self, specs: list[dict]) -> list[Effect]:
        if not specs:
            return []
        return [self._request("POST", "/jobs/batch", specs)]

    # -- lifecycle ------------------------------------------------------------
    def on_start(self, now: float) -> list[Effect]:
        return self._push(self.driver.initial_tasks()) + [
            SetTimer(T_POLL, self.POLL)]

    def on_timer(self, key: str, now: float) -> list[Effect]:
        if key != T_POLL:
            return []
        if self.driver.finished():
            if self.finished_at is None:
                self.finished_at = round(now, 6)
            return []  # stop polling; the world can wind down
        effects: list[Effect] = [SetTimer(T_POLL, self.POLL)]
        if not self._events_pending:
            self._events_pending = True
            effects.append(self._request(
                "GET", f"/events?since={self.since}&limit=500"))
        return effects

    # -- responses ------------------------------------------------------------
    def on_message(self, message: Message, now: float) -> list[Effect]:
        if message.mtype != GW_RES:
            return []
        rid = message.body.get("rid")
        if rid not in self._inflight:
            return []
        specs = self._inflight.pop(rid)
        status = int(message.body.get("status", 0))
        doc = message.body.get("body")
        if specs is not None:
            if status != 201 or not isinstance(doc, dict):
                self.batch_rejected += 1
            else:
                self.record_push(
                    [str(job_id) for job_id in doc.get("ids", [])],
                    specs, now)
            return []
        self._events_pending = False
        if status != 200 or not isinstance(doc, str):
            return []
        effects: list[Effect] = []
        events = parse_jsonl(doc)
        for record in self.ingest(events, now):
            self.driver.observe(record["spec"], record["result"])
            follow_up = self.driver.next_tasks()
            if follow_up:
                self.rounds.append(round(now, 6))
                effects += self._push(follow_up)
        return effects

    def stats(self) -> dict:
        return {
            "pushed": self.pushed,
            "popped": self.popped,
            "outstanding": len(self.outstanding),
            "batch_rejected": self.batch_rejected,
            "rounds": self.rounds,
            "finished_at": self.finished_at,
            "pop_p50": self.latency_quantile(0.5),
            "pop_max": self.latency_quantile(1.0),
        }

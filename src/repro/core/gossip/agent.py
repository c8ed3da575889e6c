"""Client-side Gossip participation for application components.

:class:`GossipAgent` is composed into any component whose state must be
synchronized (computational clients, schedulers, persistent state
managers): it registers with a well-known Gossip, answers ``GOS_POLL``
with the component's current records, applies ``GOS_UPDATE`` pushes into
the component's :class:`~.state.StateStore`, and re-registers when the
pool seems to have forgotten it (e.g. after an eviction during a
partition).

The owning component routes messages with :meth:`handles` and forwards
matching messages/timers here, exactly as :class:`GossipServer` does for
its clique sub-machine.
"""

from __future__ import annotations

from typing import Optional

from ..component import Effect, LogLine, Send, SetTimer
from ..linguafranca.messages import Message
from ..policy import RetryPolicy
from .server import GOS_POLL, GOS_REG, GOS_REG_OK, GOS_STATE, GOS_UPDATE
from .state import StateStore

__all__ = ["GossipAgent"]

T_REREG = "gosagent:rereg"
#: Label on the reliable GOS_REG send; see :meth:`GossipAgent.handles_fail`.
L_REGISTER = "gosagent:register"

_AGENT_MTYPES = frozenset({GOS_POLL, GOS_UPDATE, GOS_REG_OK})


class GossipAgent:
    """Sans-IO gossip participation glue for one component."""

    def __init__(
        self,
        store: StateStore,
        well_known: list[str],
        register_period: float = 60.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if not well_known:
            raise ValueError("GossipAgent needs at least one well-known gossip")
        self.store = store
        self.well_known = list(well_known)
        self.register_period = register_period
        #: Registration retransmission; the driver owns the actual retry
        #: loop, the agent only decides what give-up means (try the next
        #: well-known gossip).
        self.retry = retry or RetryPolicy(max_attempts=3)
        self.registered_with: Optional[str] = None
        self.known_gossips: list[str] = list(well_known)
        self.last_poll_seen: Optional[float] = None
        self.updates_applied = 0
        self._rr = 0  # round-robin cursor over well-known gossips

    # -- wiring ------------------------------------------------------------
    @staticmethod
    def handles(mtype: str) -> bool:
        return mtype in _AGENT_MTYPES

    @staticmethod
    def handles_timer(key: str) -> bool:
        return key == T_REREG

    @staticmethod
    def handles_fail(label: Optional[str]) -> bool:
        return label == L_REGISTER

    # -- protocol ------------------------------------------------------------
    def on_start(self, now: float, contact: str) -> list[Effect]:
        return [*self._register(contact), SetTimer(T_REREG, self.register_period)]

    def _register(self, contact: str) -> list[Effect]:
        target = self.well_known[self._rr % len(self.well_known)]
        self._rr += 1
        return [
            Send(target, Message(
                mtype=GOS_REG, sender=contact,
                body={"types": self.store.types()}),
                retry=self.retry, label=L_REGISTER),
        ]

    def on_send_failed(self, send: Send, now: float, contact: str) -> list[Effect]:
        """The gossip we tried to register with never confirmed: rotate
        to the next well-known member and re-announce (the round-robin
        cursor already advanced past the dead one)."""
        if send.label != L_REGISTER:
            return []
        return [LogLine(f"gossip {send.dst} unresponsive; rotating registration"),
                *self._register(contact)]

    def on_message(self, message: Message, now: float, contact: str) -> list[Effect]:
        if message.mtype == GOS_REG_OK:
            self.registered_with = message.sender
            gossips = message.body.get("gossips")
            if gossips:
                self.known_gossips = list(gossips)
            return []
        if message.mtype == GOS_POLL:
            self.last_poll_seen = now
            records = [r.to_body() for r in self.store.records()]
            return [Send(message.sender, Message(
                mtype=GOS_STATE, sender=contact, body={"records": records}))]
        if message.mtype == GOS_UPDATE:
            applied = 0
            from .state import MALFORMED, StateRecord, wire_list

            for body in wire_list(message.body.get("records")):
                try:
                    rec = StateRecord.from_body(body)
                except MALFORMED:
                    continue
                if rec.mtype in self.store.types() and self.store.apply_remote(rec):
                    applied += 1
            self.updates_applied += applied
            return []
        return []

    def on_timer(self, key: str, now: float, contact: str) -> list[Effect]:
        if key != T_REREG:
            return []
        effects: list[Effect] = [SetTimer(T_REREG, self.register_period)]
        silent = (
            self.last_poll_seen is None
            or now - self.last_poll_seen > self.register_period
        )
        if self.registered_with is None or silent:
            # Never confirmed, or the pool has gone quiet on us: the paper's
            # components re-announce rather than assume liveness.
            effects.extend(self._register(contact))
            if silent and self.registered_with is not None:
                effects.append(LogLine("no recent gossip poll; re-registering"))
        return effects

    def push(self, contact: str) -> list[Effect]:
        """Unsolicited state push (e.g. a new counter-example must spread
        without waiting for the next poll)."""
        target = self.registered_with or self.well_known[0]
        records = [r.to_body() for r in self.store.records()]
        return [Send(target, Message(
            mtype=GOS_STATE, sender=contact, body={"records": records}))]

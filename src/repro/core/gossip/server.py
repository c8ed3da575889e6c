"""The Gossip server: EveryWare's distributed state exchange service.

Per the paper (§2.3):

* application components **register** a contact address and the message
  types they synchronize;
* each registered component is **assigned a responsible Gossip** out of
  the pool, which periodically asks it for a fresh copy of its state;
* the Gossip **compares** the received state against the freshest known
  record (using the registered per-type comparator) and, when a
  component's copy is out of date, **sends it a fresh update**;
* Gossips cooperate as a pool whose membership is managed by the clique
  protocol, **dynamically partitioning the synchronization workload**;
* response times per ``(component, message type)`` are *dynamically
  benchmarked* and forecast to derive the time-outs used for failure
  detection — the "dynamic time-out discovery" the paper credits for
  overall stability (§2.2).

The paper flags its own weakest hot path: the SC98 prototype's
state-exchange protocol "can be substantially optimized" (§2.3). The
pool-side synchronization here is that optimization, a three-phase
**digest/delta anti-entropy** exchange (DESIGN §15):

1. each sync round a member sends a compact ``GOS_DIGEST`` — root hash,
   hot *rumor* records (recent adoptions, retransmitted for O(log pool)
   rounds), and piggybacked tombstones/suspicion claims — to a bounded
   fan-out of peers drawn from its clique *shard* (plus a slower-cadence
   inter-shard representative round);
2. a diverged receiver answers ``GOS_DELTA`` with its bucket hashes; the
   pair localizes disagreement to a few buckets, exchanges per-record
   digest entries for those buckets only, and the receiver nacks the
   records it wants while shipping the ones it has fresher;
3. the originator ships the requested records (``GOS_SYNC``).

Converged peers therefore exchange two tiny messages per round — bytes
are O(divergence), not O(registered state) — and evictions ride digests
as TTL'd tombstones instead of an O(pool) eviction broadcast.
Failure detection is SWIM-style (:mod:`.swim`): missed digest-acks make a
peer *suspect* (never instantly dead), suspicion piggybacks on digests,
refutations with bumped incarnations clear it, and only an expired
suspicion evicts.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..component import CancelTimer, Component, Effect, LogLine, Send, SetTimer, Stop
from ..forecasting.benchmarking import ForecastRegistry, event_tag
from ..policy import TimeoutPolicy
from ..linguafranca.messages import Message, _json
from .clique import CLIQUE_MTYPES, CliqueState, _in_view, _shared
from .digest import StateDigest, plan_exchange
from .state import (MALFORMED, ComparatorRegistry, StateRecord, wire_int,
                    wire_list, wire_stamp)
from .swim import ALIVE, DEAD, SUSPECT, SuspicionTable

__all__ = [
    "GossipServer",
    "GossipStats",
    "GOS_REG",
    "GOS_REG_OK",
    "GOS_POLL",
    "GOS_STATE",
    "GOS_UPDATE",
    "GOS_SYNC",
    "GOS_DIGEST",
    "GOS_DELTA",
    "GOS_NEWCOMP",
]

GOS_REG = "GOS_REG"
GOS_REG_OK = "GOS_REG_OK"
GOS_POLL = "GOS_POLL"
GOS_STATE = "GOS_STATE"
GOS_UPDATE = "GOS_UPDATE"
GOS_SYNC = "GOS_SYNC"
GOS_DIGEST = "GOS_DIGEST"
GOS_DELTA = "GOS_DELTA"
GOS_NEWCOMP = "GOS_NEWCOMP"

T_POLL = "gos:poll"
T_SYNC = "gos:sync"

#: A suspect lives ``SUSPICION_FACTOR x (poll_period + default_timeout)``
#: before it is declared dead.
SUSPICION_FACTOR = 2.0


@dataclass
class GossipStats:
    polls_sent: int = 0
    states_received: int = 0
    updates_sent: int = 0
    records_adopted: int = 0
    comparisons: int = 0
    evictions: int = 0
    #: Never incremented by the digest plane; kept because the recorded
    #: ``bigpool.export_state`` totals name it.
    syncs_sent: int = 0
    # -- digest/delta anti-entropy (DESIGN §15) -----------------------------
    digest_rounds: int = 0
    digests_sent: int = 0
    digest_acks: int = 0
    deltas_sent: int = 0
    delta_records: int = 0
    #: Comparator invocations spent on the sync plane (digest rounds pay
    #: O(divergence)).
    sync_comparisons: int = 0
    #: Actual sync-plane bytes put on the wire by this member.
    bytes_sent: int = 0
    #: What the same sends would have cost had each carried the full
    #: freshest state (the SC98 path) — ``bytes_saved`` is the difference.
    bytes_full_equiv: int = 0
    tombstones_created: int = 0
    tombstones_applied: int = 0
    suspicions: int = 0
    refutations: int = 0
    deaths: int = 0

    @property
    def bytes_saved(self) -> int:
        return max(self.bytes_full_equiv - self.bytes_sent, 0)


@dataclass
class _Registration:
    contact: str
    types: set[str]
    last_seen: float = 0.0


class GossipServer(Component):
    """One member of the Gossip pool."""

    def __init__(
        self,
        name: str,
        well_known: list[str],
        comparators: Optional[ComparatorRegistry] = None,
        poll_period: float = 15.0,
        sync_period: float = 20.0,
        dead_factor: float = 6.0,
        default_timeout: float = 10.0,
        dynamic_timeouts: bool = True,
        token_period: float = 10.0,
        token_timeout: float = 35.0,
        fanout: int = 2,
        shard_size: int = 32,
        intershard_period: int = 2,
    ) -> None:
        super().__init__(name)
        #: The caller's contact list, held (never copied or edited) so a
        #: pool of N members holds one list, not N (DESIGN §15).
        self.well_known = well_known
        self.comparators = comparators or ComparatorRegistry()
        self.poll_period = poll_period
        self.sync_period = sync_period
        self.dead_factor = dead_factor
        self.default_timeout = default_timeout
        #: Ablation A1 switch: False = fixed time-outs, True = forecast-driven.
        self.dynamic_timeouts = dynamic_timeouts
        self._token_period = token_period
        self._token_timeout = token_timeout
        self.fanout = max(int(fanout), 1)
        self.shard_size = max(int(shard_size), 2)
        self.intershard_period = max(int(intershard_period), 1)
        self.registry: dict[str, _Registration] = {}
        self.freshest: dict[str, StateRecord] = {}
        #: Incremental digest over ``freshest`` (kept current by ``_adopt``).
        self.digest = StateDigest()
        self.forecasts = ForecastRegistry()
        #: Outstanding polls: contact -> send time. A GOS_STATE answering
        #: one records the poll's response time, once.
        self._polls: dict[str, float] = {}
        #: The reply time-out policy in force (ablation A1 picks static).
        self._reply_timeout = TimeoutPolicy.forecast(
            registry=self.forecasts,
            multiplier=4.0,
            default=default_timeout,
            floor=0.25,
            ceiling=4.0 * poll_period,
        ) if dynamic_timeouts else TimeoutPolicy.static(default_timeout)
        #: Digest-ack dead-man policy: same forecast machinery, ceilinged
        #: by the sync cadence instead of the poll cadence.
        self._digest_timeout = TimeoutPolicy.forecast(
            registry=self.forecasts,
            multiplier=4.0,
            default=default_timeout,
            floor=0.25,
            ceiling=4.0 * sync_period,
        )
        self.stats = GossipStats()
        self.clique: Optional[CliqueState] = None
        #: SWIM-style liveness table covering pool members *and*
        #: registered components (contacts are unique across both).
        self.suspicion: Optional[SuspicionTable] = None
        #: Active tombstones: contact -> eviction stamp. Piggybacked on
        #: digests, GC'd after the TTL.
        self.tombstones: dict[str, float] = {}
        #: Registration announcements awaiting piggyback: contact -> budget.
        self._reg_queue: dict[str, int] = {}
        #: Hot records (rumors): tag -> remaining rounds.
        self._rumors: dict[str, int] = {}
        #: Digest sends awaiting their ack: peer -> send time.
        self._pending_acks: dict[str, float] = {}
        #: Our own pending SWIM refutation, piggybacked on the next round.
        self._refutation: Optional[list] = None
        self._round = 0
        self._bytes_counter = None
        self._saved_counter = None
        self._rounds_counter = None
        self._delta_counter = None
        #: Last observed (shared) clique membership view, for
        #: reconfiguration detection (``gossip.clique_reconfigs`` counts
        #: regime changes this member witnessed — elections, joins,
        #: partitions shrinking the pool).
        self._members_view: list[str] = []
        #: ``_piggyback_budget()`` and the view it was derived from.
        self._budget_view: Optional[list[str]] = None
        self._budget = 0
        #: ``_membership()``: derived from this view object and this
        #: ``SuspicionTable.dead_version``, reused until either moves.
        self._derived_view: Optional[list[str]] = None
        self._derived_dead = -1
        self._alive: Sequence[str] = ()
        self._peers: tuple[str, ...] = ()

    # -- lifecycle ------------------------------------------------------------
    def on_start(self, now: float) -> list[Effect]:
        contact = self.contact
        self.clique = CliqueState(
            self_id=contact,
            universe=self.well_known,
            token_period=self._token_period,
            token_timeout=self._token_timeout,
        )
        self.suspicion = SuspicionTable(
            contact,
            suspicion_timeout=self._suspicion_window,
            on_transition=self._on_liveness_transition,
        )
        effects: list[Effect] = []
        if not _in_view(_shared(self.well_known)[0], contact):
            effects.extend(self.clique.join_effects(self.well_known))
        effects.extend(self.clique.start(now))
        effects.append(SetTimer(T_POLL, self.poll_period))
        effects.append(SetTimer(T_SYNC, self.sync_period))
        self._members_view = self.clique.members
        self.telemetry.metrics.gauge(
            "gossip.clique_size", component=self.name).set(
                len(self._members_view))
        return effects

    def _suspicion_window(self) -> float:
        """How long a suspect lives before it is declared dead. The
        *entry* into suspicion is forecast-timed (missed digest-ack /
        poll deadline); the expiry window is a deterministic multiple of
        the detection cadence."""
        return SUSPICION_FACTOR * (self.poll_period + self.default_timeout)

    def _on_liveness_transition(self, member: str, old: str, new: str) -> None:
        scope = "component" if member in self.registry else "member"
        if new == SUSPECT:
            self.stats.suspicions += 1
        elif new == ALIVE and old != ALIVE:
            self.stats.refutations += 1
        elif new == DEAD:
            self.stats.deaths += 1
        self.telemetry.metrics.counter(
            "gossip.suspicion", component=self.name, to=new, scope=scope).inc()

    # -- responsibility partitioning ------------------------------------------
    def pool_members(self) -> list[str]:
        """The clique's membership view: sorted, shared, do not edit."""
        assert self.clique is not None
        return self.clique.members

    def alive_members(self) -> list[str]:
        """Pool members not currently declared dead by the failure
        detector (suspects stay in: suspicion is a hint, not a verdict)."""
        return list(self._membership()[0])

    def _membership(self) -> tuple[Sequence[str], tuple[str, ...]]:
        """``(alive members, usable shard peers but self)``, derived once
        per membership view and per move of the suspicion table's DEAD
        set. The first may be the shared view itself: do not edit."""
        clique, susp = self.clique, self.suspicion
        assert clique is not None and susp is not None
        view = clique.members
        if view is not self._derived_view or susp.dead_version != self._derived_dead:
            me = clique.self_id
            dead = {m for m, mv in susp.members.items()
                    if mv.state == DEAD and m != me and _in_view(view, m)}
            self._alive = tuple(m for m in view if m not in dead) if dead else view
            self._peers = tuple(p for p in clique.my_shard(self.shard_size)
                                if p != me and p not in dead)
            self._derived_view, self._derived_dead = view, susp.dead_version
        return self._alive, self._peers

    def responsible_for(self, contact: str) -> bool:
        """Consistent assignment of components across the current clique."""
        members = self._membership()[0]
        if not members:
            return True
        idx = zlib.crc32(contact.encode("utf-8")) % len(members)
        return members[idx] == self.contact

    # -- message handling -------------------------------------------------------
    def on_message(self, message: Message, now: float) -> list[Effect]:
        if message.mtype in CLIQUE_MTYPES:
            assert self.clique is not None
            effects = self.clique.on_message(message, now)
            self._note_membership(now)
            return effects
        handler = self._HANDLERS.get(message.mtype)
        if handler is None:
            return []
        return getattr(self, handler)(message, now)

    #: mtype -> handler method name (clique traffic is routed above).
    _HANDLERS = {
        GOS_REG: "_on_register",
        GOS_STATE: "_on_state",
        GOS_SYNC: "_on_sync",
        GOS_DIGEST: "_on_digest",
        GOS_DELTA: "_on_delta",
        GOS_NEWCOMP: "_on_newcomp",
    }

    def _note_membership(self, now: float) -> None:
        """Record a clique regime change, if the last event caused one."""
        assert self.clique is not None
        members = self.clique.members
        if members is self._members_view:
            return  # one list per distinct view: the common case
        before, self._members_view = self._members_view, members
        if members == before:
            return
        for peer in [p for p in self._pending_acks if not _in_view(members, p)]:
            del self._pending_acks[peer]
        metrics = self.telemetry.metrics
        metrics.counter("gossip.clique_reconfigs", component=self.name).inc()
        metrics.gauge("gossip.clique_size", component=self.name).set(
            len(members))
        self.telemetry.event(
            "clique reconfigure", now, component=self.name,
            outcome="reconfigure", size=len(members),
            joined=sorted(set(members) - set(before)),
            left=sorted(set(before) - set(members)))

    def _piggyback_budget(self) -> int:
        """Retransmission budget for piggybacked claims/tombstones/
        registrations: O(log pool) rounds spreads a claim epidemic-wide.
        Derived once per membership view."""
        if self._budget_view is not self._members_view:
            self._budget_view = view = self._members_view
            self._budget = int(math.ceil(math.log2(max(len(view), 2)))) + 3
        return self._budget

    def _rumor_budget(self) -> int:
        """Rounds a freshly-adopted record stays hot (rumor-mongered on
        every digest): ceil(log2(pool)) + 4."""
        return self._piggyback_budget() + 1

    # -- registration ---------------------------------------------------------
    def _on_register(self, message: Message, now: float) -> list[Effect]:
        contact = message.sender
        types = set(message.body.get("types", []))
        self.registry[contact] = _Registration(contact, types, last_seen=now)
        self.tombstones.pop(contact, None)
        if self.suspicion is not None:
            self.suspicion.confirm_alive(contact, now,
                                         budget=self._piggyback_budget())
        effects: list[Effect] = [
            Send(contact, message.reply(GOS_REG_OK, sender=self.contact,
                                        body={"gossips": self.alive_members()}))
        ]
        # Tell this member's shard directly; the rest of the pool learns
        # through the registration piggyback on digest rounds (O(shard)
        # sends instead of O(pool), with epidemic coverage behind it).
        announce = Message(mtype=GOS_NEWCOMP, sender=self.contact, body={
            "contact": contact, "types": sorted(types), "ts": now})
        effects.extend(Send(peer, announce) for peer in self._shard_peers())
        self._reg_queue[contact] = self._piggyback_budget()
        return effects

    def _shard_peers(self) -> tuple[str, ...]:
        """Usable members of this node's sync shard, excluding self."""
        return self._membership()[1]

    def _on_newcomp(self, message: Message, now: float) -> list[Effect]:
        contact = message.body["contact"]
        types = set(message.body.get("types", []))
        stamp = float(message.body.get("ts", now))
        self._note_registration(contact, types, stamp)
        return []

    def _note_registration(self, contact: str, types: set[str],
                           stamp: float) -> None:
        tomb = self.tombstones.get(contact)
        if tomb is not None:
            if stamp <= tomb:
                return  # the eviction post-dates this registration
            self.tombstones.pop(contact, None)
        existing = self.registry.get(contact)
        if existing is None:
            self.registry[contact] = _Registration(contact, types,
                                                   last_seen=stamp)
        else:
            existing.types |= types
            existing.last_seen = max(existing.last_seen, stamp)

    # -- state plane (polls / component pushes) --------------------------------
    def _on_state(self, message: Message, now: float) -> list[Effect]:
        contact = message.sender
        self.stats.states_received += 1
        reg = self.registry.get(contact)
        if reg is not None:
            reg.last_seen = now
        if self.suspicion is not None:
            # First-hand contact refutes any suspicion: a suspected-then-
            # refuted component must never proceed to eviction.
            self.suspicion.confirm_alive(contact, now,
                                         budget=self._piggyback_budget())
        sent = self._polls.pop(contact, None)
        if sent is not None:
            self.forecasts.record(event_tag(contact, GOS_POLL), now - sent)
        remote = self._merge_records(message.body.get("records", []))
        # Push fresh state for every *registered* type the component holds a
        # stale copy of — or no copy at all (it may never have written one).
        stale_types: list[str] = []
        types = reg.types if reg is not None else set(remote)
        for mtype in types:
            current = self.freshest.get(mtype)
            if current is None:
                continue
            rec = remote.get(mtype)
            if rec is None:
                stale_types.append(mtype)
            else:
                self.stats.comparisons += 1
                if self.comparators.compare(current, rec) > 0:
                    stale_types.append(mtype)
        if stale_types:
            self.stats.updates_sent += 1
            payload = [self.freshest[t].to_body() for t in sorted(set(stale_types))]
            return [Send(contact, Message(
                mtype=GOS_UPDATE, sender=self.contact, body={"records": payload}))]
        return []

    def _on_sync(self, message: Message, now: float) -> list[Effect]:
        self._merge_records(message.body.get("records", []), sync_plane=True)
        self._note_peer_alive(message.sender, now)
        return []

    def _merge_records(self, bodies: list[dict],
                       sync_plane: bool = False) -> dict[str, StateRecord]:
        """Adopt fresher records; returns the parsed remote records by type."""
        remote: dict[str, StateRecord] = {}
        for body in wire_list(bodies):
            try:
                rec = StateRecord.from_body(body)
            except MALFORMED:
                continue  # malformed record: robustness over strictness
            remote[rec.mtype] = rec
            current = self.freshest.get(rec.mtype)
            if current is None:
                self._adopt(rec, body)
                continue
            if sync_plane:
                self.stats.sync_comparisons += 1
            else:
                self.stats.comparisons += 1
            if self.comparators.compare(rec, current) > 0:
                self._adopt(rec, body)
        return remote

    def _adopt(self, rec: StateRecord, body: dict) -> None:
        """Single funnel for freshest-map writes: keeps the incremental
        digest current and queues the record for rumor-mongering. The
        body is sized as received, not as ``rec`` would re-render it."""
        self.freshest[rec.mtype] = rec
        self.stats.records_adopted += 1
        self.digest.adopt(rec, len(_json(body)))
        self._rumors[rec.mtype] = self._rumor_budget()

    def seed_records(self, records: list[StateRecord],
                     hot: bool = False) -> None:
        """World-builder hook: install records directly (pre-converged
        pools for scale experiments). ``hot=False`` skips the rumor queue
        so seeding N nodes with identical state does not trigger an
        O(N^2) gossip storm at t=0."""
        for rec in records:
            self.freshest[rec.mtype] = rec
            self.digest.adopt(rec, rec.body_size)
            if hot:
                self._rumors[rec.mtype] = self._rumor_budget()

    # -- timers ------------------------------------------------------------
    def on_timer(self, key: str, now: float) -> list[Effect]:
        if key.startswith("clq:"):
            assert self.clique is not None
            effects = self.clique.on_timer(key, now)
            self._note_membership(now)
            return effects
        if key == T_POLL:
            return self._poll_round(now) + [SetTimer(T_POLL, self.poll_period)]
        if key == T_SYNC:
            return self._sync_round(now) + [SetTimer(T_SYNC, self.sync_period)]
        return []

    def _component_timeout(self, contact: str) -> float:
        return self._reply_timeout.timeout_for(event_tag(contact, GOS_POLL))

    def _ack_timeout(self, peer: str) -> float:
        if not self.dynamic_timeouts:
            return self.default_timeout
        return self._digest_timeout.timeout_for(event_tag(peer, GOS_DIGEST))

    # -- poll plane -----------------------------------------------------------
    def _poll_round(self, now: float) -> list[Effect]:
        effects: list[Effect] = []
        assert self.suspicion is not None
        budget = self._piggyback_budget()
        self.suspicion.tick(now)
        for contact in sorted(self.registry):
            if not self.responsible_for(contact):
                continue
            if self.suspicion.state_of(contact) == DEAD:
                # Suspicion expired (or a relayed death claim confirmed):
                # the responsible member performs the one pool-wide
                # eviction; everyone else learns via the tombstone.
                effects.extend(self._evict(contact, now))
                continue
            reg = self.registry[contact]
            # The state-message gap is one poll cycle plus the response
            # time, so the death deadline must budget for both — otherwise
            # a single lost poll on a quiet network looks like a death.
            deadline = self.dead_factor * (
                self.poll_period + self._component_timeout(contact))
            if reg.last_seen and now - reg.last_seen > deadline:
                # Missed the deadline: *suspect* — never evict outright.
                # The suspicion piggybacks on digests; contact from the
                # component refutes it, expiry (tick below) evicts it.
                # Keep polling meanwhile: a slow-but-live component's next
                # GOS_STATE is the first-hand refutation.
                self.suspicion.suspect(contact, now, budget=budget)
            # Replaces a lost previous poll, which must not skew stats.
            self._polls[contact] = now
            self.stats.polls_sent += 1
            effects.append(Send(contact, Message(
                mtype=GOS_POLL, sender=self.contact, body={})))
        return effects

    def _evict(self, contact: str, now: float) -> list[Effect]:
        del self.registry[contact]
        self.forecasts.drop(event_tag(contact, GOS_POLL))
        self.tombstones[contact] = now
        self.stats.evictions += 1
        self.stats.tombstones_created += 1
        metrics = self.telemetry.metrics
        metrics.counter("gossip.evictions", component=self.name).inc()
        metrics.counter("gossip.tombstones", component=self.name,
                        event="created").inc()
        return [LogLine(f"evicting silent component {contact}")]

    # -- sync plane: digest/delta anti-entropy (DESIGN §15) --------------------
    def _gc_tombstones(self, now: float) -> None:
        ttl = 30.0 * self.sync_period
        for contact in [c for c, t in self.tombstones.items()
                        if now - t > ttl]:
            del self.tombstones[contact]
            if self.suspicion is not None:
                self.suspicion.forget(contact)

    def _pick_targets(self) -> list[str]:
        """Bounded fan-out: ``fanout`` peers from this member's shard,
        plus (on the slower inter-shard cadence, representatives only)
        one peer from a rotating foreign shard."""
        assert self.clique is not None and self.runtime is not None
        targets: list[str] = []
        pool = list(self._shard_peers())
        for _ in range(min(self.fanout, len(pool))):
            idx = int(self.runtime.random() * len(pool)) % len(pool)
            targets.append(pool.pop(idx))
        if (self._round % self.intershard_period == 0
                and self.clique.is_representative(self.shard_size)):
            shards = self.clique.shards(self.shard_size)
            me = self.clique.self_id
            foreign = [s for s in shards if me not in s]
            if foreign:
                turn = (self._round // self.intershard_period) % len(foreign)
                susp = self.suspicion
                for candidate in foreign[turn]:
                    if susp is None or susp.is_usable(candidate):
                        if candidate not in targets:
                            targets.append(candidate)
                        break
        return targets

    def _piggyback(self, body: dict) -> dict:
        """Attach tombstones, suspicion claims, and pending registration
        announcements to an outgoing sync-plane message."""
        if self.tombstones:
            body["tomb"] = [[c, self.tombstones[c]]
                            for c in sorted(self.tombstones)]
        if self.suspicion is not None:
            claims = self.suspicion.gossip_claims()
            if claims:
                body["susp"] = claims
        if self._reg_queue:
            regs = []
            for contact in sorted(self._reg_queue):
                reg = self.registry.get(contact)
                if reg is None:
                    continue
                regs.append([contact, sorted(reg.types), reg.last_seen])
                self._reg_queue[contact] -= 1
                if self._reg_queue[contact] <= 0:
                    del self._reg_queue[contact]
            if regs:
                body["reg"] = regs
        return body

    def _apply_piggyback(self, body: dict, now: float) -> None:
        for item in wire_list(body.get("tomb")):
            try:
                contact, stamp = str(item[0]), wire_stamp(item[1])
            except MALFORMED:
                continue
            self._apply_tombstone(contact, stamp, now)
        claims = wire_list(body.get("susp"))
        if claims and self.suspicion is not None:
            refutation = self.suspicion.apply_claims(
                claims, now, budget=self._piggyback_budget())
            if refutation is not None:
                # We are suspected somewhere: piggyback the refutation on
                # the next digest round (with its dominating incarnation).
                self._refutation = refutation
        for item in wire_list(body.get("reg")):
            try:
                contact, types, stamp = (
                    str(item[0]), set(map(str, item[1])), wire_stamp(item[2]))
            except MALFORMED:
                continue
            self._note_registration(contact, types, stamp)

    def _apply_tombstone(self, contact: str, stamp: float,
                         now: float) -> None:
        if not contact:
            return
        known = self.tombstones.get(contact)
        if known is not None and known >= stamp:
            return  # already applied this (or a newer) tombstone
        reg = self.registry.get(contact)
        if reg is not None and reg.last_seen > stamp:
            return  # we have seen the component alive since the eviction
        if reg is not None:
            del self.registry[contact]
        self.tombstones[contact] = stamp
        self.stats.tombstones_applied += 1
        self.telemetry.metrics.counter(
            "gossip.tombstones", component=self.name, event="applied").inc()

    def _note_peer_alive(self, peer: str, now: float) -> None:
        if self.suspicion is not None:
            self.suspicion.confirm_alive(peer, now,
                                         budget=self._piggyback_budget())

    def _hot_records(self) -> list[dict]:
        """Rumor payload for this round: hot records, budget-limited."""
        if not self._rumors:
            return []
        sent: list[dict] = []
        for tag in sorted(self._rumors)[:32]:
            rec = self.freshest.get(tag)
            if rec is None:
                self._rumors.pop(tag, None)
                continue
            sent.append(rec.to_body())
            self._rumors[tag] -= 1
            if self._rumors[tag] <= 0:
                del self._rumors[tag]
        return sent

    def _account_send(self, message: Message) -> None:
        size = message.wire_size()
        self.stats.bytes_sent += size
        # What the SC98-style path would have shipped for the same send:
        # the entire freshest state, plus framing.
        self.stats.bytes_full_equiv += self.digest.entry_bytes + 64
        if self._bytes_counter is None:
            self._bytes_counter = self.telemetry.metrics.counter(
                "gossip.sync_bytes", component=self.name)
            self._saved_counter = self.telemetry.metrics.counter(
                "gossip.bytes_saved", component=self.name)
        self._bytes_counter.inc(size)
        self._saved_counter.inc(max(self.digest.entry_bytes + 64 - size, 0))

    def _note_delta_records(self, shipped: int) -> None:
        if not shipped:
            return
        self.stats.delta_records += shipped
        if self._delta_counter is None:
            self._delta_counter = self.telemetry.metrics.counter(
                "gossip.delta_records", component=self.name)
        self._delta_counter.inc(shipped)

    def _sync_round(self, now: float) -> list[Effect]:
        assert self.suspicion is not None
        self._round += 1
        self.stats.digest_rounds += 1
        self._gc_tombstones(now)
        effects: list[Effect] = []
        # Overdue digest-acks: the forecast-informed dead-man switch that
        # feeds the SWIM alive -> suspect edge.
        budget = self._piggyback_budget()
        for peer in sorted(self._pending_acks):
            if now - self._pending_acks[peer] > self._ack_timeout(peer):
                del self._pending_acks[peer]
                self.suspicion.suspect(peer, now, budget=budget)
        # Advance suspect -> dead; component evictions happen on the poll
        # plane (responsible member only), member deaths just leave the
        # sync rotation via alive_members().
        self.suspicion.tick(now)
        targets = self._pick_targets()
        if not targets:
            return effects
        hot = self._hot_records()
        refutation, self._refutation = self._refutation, None
        for peer in targets:
            body: dict = {"r": self._round,
                          "root": self.digest.root,
                          "n": self.digest.count}
            if hot:
                body["d"] = hot
            self._piggyback(body)
            if refutation is not None:
                body.setdefault("susp", []).append(refutation)
            message = Message(mtype=GOS_DIGEST, sender=self.contact, body=body)
            self._account_send(message)
            self.stats.digests_sent += 1
            if peer not in self._pending_acks:
                self._pending_acks[peer] = now
            effects.append(Send(peer, message))
        if self._rounds_counter is None:
            self._rounds_counter = self.telemetry.metrics.counter(
                "gossip.digest_rounds", component=self.name)
        self._rounds_counter.inc()
        return effects

    def _on_digest(self, message: Message, now: float) -> list[Effect]:
        peer = message.sender
        body = message.body
        self._note_peer_alive(peer, now)
        self._apply_piggyback(body, now)
        if "d" in body:
            merged = self._merge_records(body.get("d", []), sync_plane=True)
            self._note_delta_records(len(merged))
        reply: dict = {"a": body.get("r", 0)}
        digest = self.digest
        # An unreadable root or count reads as absent: answer diverged.
        if (wire_int(body.get("root"), -1) == digest.root
                and wire_int(body.get("n"), -1) == digest.count):
            reply["ok"] = 1
        else:
            reply["bh"] = list(digest.buckets)
            reply["n"] = digest.count
        self._piggyback(reply)
        out = Message(mtype=GOS_DELTA, sender=self.contact, body=reply)
        self._account_send(out)
        return [Send(peer, out)]

    def _on_delta(self, message: Message, now: float) -> list[Effect]:
        peer = message.sender
        body = message.body
        self._note_peer_alive(peer, now)
        self._apply_piggyback(body, now)
        if "a" in body:
            # The ack closes the dead-man window and feeds the forecast
            # that sizes the next one.
            sent = self._pending_acks.pop(peer, None)
            if sent is not None:
                self.forecasts.record(event_tag(peer, GOS_DIGEST), now - sent)
            self.stats.digest_acks += 1
        if "ok" in body:
            return []
        digest = self.digest
        effects: list[Effect] = []
        if "bh" in body:
            # Phase 2: localize the disagreement, ship per-record digest
            # entries for the diverged buckets only.
            try:
                remote_buckets = [int(h) for h in body["bh"]]
            except MALFORMED:
                return []
            buckets = digest.diverged_buckets(remote_buckets)
            if digest.count == 0 and wire_int(body.get("n"), 0) == 0:
                buckets = []
            if not buckets:
                return []
            entries = digest.entries_for(self.freshest, buckets)
            out_body: dict = {"e": entries, "bk": buckets}
            self._piggyback(out_body)
            out = Message(mtype=GOS_DELTA, sender=self.contact, body=out_body)
            self._account_send(out)
            self.stats.deltas_sent += 1
            effects.append(Send(peer, out))
            return effects
        if "e" in body:
            # Phase 3: the peer's entries tell us exactly what to ship
            # and what to nack.
            ship, want, comparisons = plan_exchange(
                self.freshest, digest, self.comparators,
                wire_list(body["e"]), buckets=body.get("bk"))
            self.stats.sync_comparisons += comparisons
            if ship or want:
                out_body = {"d": [r.to_body() for r in ship], "w": want}
                self._piggyback(out_body)
                out = Message(mtype=GOS_DELTA, sender=self.contact,
                              body=out_body)
                self._account_send(out)
                self.stats.deltas_sent += 1
                self._note_delta_records(len(ship))
                effects.append(Send(peer, out))
            return effects
        if "d" in body or "w" in body:
            # Phase 4 (ship): merge the peer's fresher records, answer its
            # nack list with ours.
            merged = self._merge_records(body.get("d", []), sync_plane=True)
            self._note_delta_records(len(merged))
            wanted = [t for t in wire_list(body.get("w"))
                      if isinstance(t, str) and t in self.freshest]
            if wanted:
                out_body = {"records": [self.freshest[t].to_body()
                                        for t in sorted(set(wanted))]}
                out = Message(mtype=GOS_SYNC, sender=self.contact,
                              body=out_body)
                self._account_send(out)
                self._note_delta_records(len(wanted))
                effects.append(Send(peer, out))
            return effects
        return effects

"""SWIM-style suspicion: the Gossip pool's membership failure detector.

The SC98 prototype treated silence as death: a component that missed its
poll deadline was evicted and the eviction was broadcast to the whole
pool. At a thousand nodes that is both too eager (one congested link
kills a healthy node pool-wide) and too chatty (O(pool) messages per
eviction). This module replaces it with the SWIM pattern the gossip
literature converged on (see SNIPPETS.md "Gossip Protocol"):

* **alive -> suspect** — a member that misses a digest-ack (or a
  component that misses its poll deadline) is *suspected*, not killed.
  The suspicion is piggybacked on subsequent digests instead of being
  polled for or broadcast.
* **suspect -> alive (refutation)** — any message from the suspect, or an
  alive claim carrying a *higher incarnation number*, clears the
  suspicion. A node that learns it is suspected bumps its own incarnation
  and piggybacks the refutation; incarnations totally order claims so a
  stale suspicion can never overrule a fresh refutation.
* **suspect -> dead** — only after the suspicion timeout (sized from the
  same forecast machinery that drives the paper's §2.2 dynamic time-outs)
  does the member become dead; death is then *tombstoned* and the
  tombstone rides digests with a TTL, so an eviction costs O(fan-out)
  piggyback bytes instead of an O(pool) broadcast.

The table is sans-IO and deterministic: transitions happen only in
response to explicit calls from the owning :class:`~.server.GossipServer`
with the simulation clock passed in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["ALIVE", "SUSPECT", "DEAD", "MemberView", "SuspicionTable"]

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"


@dataclass
class MemberView:
    """One peer's perceived liveness."""

    state: str = ALIVE
    incarnation: int = 0
    since: float = 0.0  # when the current state was entered


#: Piggyback wire shape: ``[member, state, incarnation]``.
Claim = list

#: ``(member, old_state, new_state)`` observer, called on every transition.
TransitionHook = Callable[[str, str, str], None]


class SuspicionTable:
    """Deterministic alive/suspect/dead bookkeeping for a set of peers.

    ``suspicion_timeout`` may be a float or a zero-arg callable (so the
    owner can plug a forecast-driven value in); it bounds how long a
    suspect lives before :meth:`tick` declares it dead.
    """

    def __init__(
        self,
        self_id: str,
        suspicion_timeout: float | Callable[[], float] = 30.0,
        on_transition: Optional[TransitionHook] = None,
    ) -> None:
        self.self_id = self_id
        self.suspicion_timeout = suspicion_timeout
        self.on_transition = on_transition
        self.self_incarnation = 0
        self.members: dict[str, MemberView] = {}
        #: Dirty claims awaiting dissemination: member -> remaining
        #: piggyback budget. Entries drain as :meth:`gossip_claims` is
        #: called, giving each transition O(log pool) transmissions.
        self._dirty: dict[str, int] = {}
        #: Transition counters by target state (telemetry mirrors these).
        self.transitions: dict[str, int] = {ALIVE: 0, SUSPECT: 0, DEAD: 0}

    # -- helpers -----------------------------------------------------------
    def _timeout(self) -> float:
        t = self.suspicion_timeout
        return float(t()) if callable(t) else float(t)

    def view(self, member: str) -> MemberView:
        mv = self.members.get(member)
        if mv is None:
            mv = self.members[member] = MemberView()
        return mv

    def state_of(self, member: str) -> str:
        mv = self.members.get(member)
        return mv.state if mv is not None else ALIVE

    def is_usable(self, member: str) -> bool:
        """Alive or merely suspected members stay in the sync rotation —
        only confirmed-dead ones are skipped."""
        return self.state_of(member) != DEAD

    def _move(self, member: str, mv: MemberView, state: str, now: float,
              budget: int) -> None:
        old = mv.state
        if old == state:
            return
        mv.state = state
        mv.since = now
        self.transitions[state] += 1
        self._dirty[member] = budget
        if self.on_transition is not None:
            self.on_transition(member, old, state)

    # -- transitions --------------------------------------------------------
    def suspect(self, member: str, now: float, budget: int = 4,
                incarnation: Optional[int] = None) -> bool:
        """Local evidence (missed ack/poll) or a piggybacked claim says
        ``member`` may be down. Returns True if a transition happened."""
        mv = self.view(member)
        if incarnation is not None:
            if incarnation < mv.incarnation:
                return False  # stale claim: a fresher refutation won
            mv.incarnation = incarnation
        if mv.state != ALIVE:
            return False
        self._move(member, mv, SUSPECT, now, budget)
        return True

    def confirm_alive(self, member: str, now: float, budget: int = 4,
                      incarnation: Optional[int] = None) -> bool:
        """Direct contact from the member, or a refutation claim. A plain
        message from the member always clears suspicion (it is first-hand
        evidence); a relayed alive-claim must carry an incarnation >= the
        one the suspicion was filed under."""
        mv = self.view(member)
        if incarnation is not None:
            if mv.state == SUSPECT and incarnation <= mv.incarnation:
                return False  # does not refute the current suspicion
            mv.incarnation = max(mv.incarnation, incarnation)
        if mv.state == ALIVE:
            return False
        if mv.state == DEAD and incarnation is None:
            # First-hand contact from a declared-dead member: resurrection
            # (reboot). Bump so stale death claims cannot re-kill it.
            mv.incarnation += 1
        self._move(member, mv, ALIVE, now, budget)
        return True

    def declare_dead(self, member: str, now: float, budget: int = 4,
                     incarnation: Optional[int] = None) -> bool:
        mv = self.view(member)
        if incarnation is not None:
            if incarnation < mv.incarnation:
                return False
            mv.incarnation = incarnation
        if mv.state == DEAD:
            return False
        self._move(member, mv, DEAD, now, budget)
        return True

    def forget(self, member: str) -> None:
        self.members.pop(member, None)
        self._dirty.pop(member, None)

    def tick(self, now: float) -> list[str]:
        """Expire suspicions: suspects older than the suspicion timeout
        become dead. Returns the newly-dead members, sorted."""
        deadline = self._timeout()
        newly_dead = [m for m in sorted(self.members)
                      if self.members[m].state == SUSPECT
                      and now - self.members[m].since > deadline]
        for member in newly_dead:
            self.declare_dead(member, now)
        return newly_dead

    # -- dissemination -------------------------------------------------------
    def gossip_claims(self, limit: int = 8) -> list[Claim]:
        """Claims to piggyback on the next digest, freshest budget first.
        Each call spends one unit of every emitted claim's budget."""
        if not self._dirty:
            return []
        order = sorted(self._dirty, key=lambda m: (-self._dirty[m], m))[:limit]
        claims: list[Claim] = []
        for member in order:
            mv = self.members[member]
            claims.append([member, mv.state, mv.incarnation])
            self._dirty[member] -= 1
            if self._dirty[member] <= 0:
                del self._dirty[member]
        return claims

    def apply_claims(self, claims: list[Claim], now: float,
                     budget: int = 4) -> Optional[Claim]:
        """Merge piggybacked claims. If one of them suspects or kills
        *this node*, returns the refutation claim to piggyback (with a
        freshly bumped incarnation); the caller must spread it."""
        refutation: Optional[Claim] = None
        for claim in claims:
            try:
                member, state, incarnation = (
                    str(claim[0]), str(claim[1]), int(claim[2]))
            except (IndexError, TypeError, ValueError):
                continue  # malformed claim: drop it
            if member == self.self_id:
                if state in (SUSPECT, DEAD) and incarnation >= self.self_incarnation:
                    # Someone thinks we are down. We are provably not:
                    # refute with a dominating incarnation.
                    self.self_incarnation = incarnation + 1
                    refutation = [self.self_id, ALIVE, self.self_incarnation]
                continue
            if state == SUSPECT:
                self.suspect(member, now, budget, incarnation=incarnation)
            elif state == DEAD:
                self.declare_dead(member, now, budget, incarnation=incarnation)
            elif state == ALIVE:
                self.confirm_alive(member, now, budget, incarnation=incarnation)
        return refutation

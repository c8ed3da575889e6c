"""The clique protocol: Gossip-pool membership under partition and failure.

The paper manages the Gossip pool with "the NWS clique protocol — a
token-passing protocol based on leader-election [12, 1]", which lets a
clique of processes "dynamically partition itself into subcliques (due to
network or host failure) and then merge when conditions permit" (§2.3).

This implementation realizes that specification as a leader-driven token
round with bully-style election (per the cited leader-election
literature):

* The **leader** periodically probes every member of the *universe* (the
  configured pool plus dynamic joiners), assembles the responders into
  the current *clique*, and circulates a versioned token carrying the
  membership view.
* **Members** keep a watchdog on token receipt; on expiry they run a
  bully election — challenge all higher-id members, stand down if any
  answers, otherwise assume leadership with a bumped version.
* **Partitions** therefore converge on one leader per reachable group,
  each leading its own subclique; when the partition heals, the leaders
  discover each other through probes: the smaller-id leader abdicates to
  the bigger live one, and the surviving leader's next token (with a
  version that dominates every version it has witnessed) merges the
  cliques.

Every protocol message carries the sender's ``(version, leader)`` claim.
Nodes track the highest version they have ever witnessed
(``_seen_version``); any new regime is created at ``seen + 1`` so its
tokens always dominate stale regimes — classic epoch management.

The class is sans-IO: the owning component routes ``CLQ_*`` messages and
``clq:*`` timers here and applies the returned effects.
"""

from __future__ import annotations

from typing import Optional

from ..component import CancelTimer, Effect, LogLine, Send, SetTimer
from ..linguafranca.messages import Message

__all__ = ["CliqueState", "plan_shards", "CLQ_PROBE", "CLQ_ALIVE", "CLQ_TOKEN",
           "CLQ_ELECT", "CLQ_ELECT_OK", "CLQ_JOIN", "CLIQUE_MTYPES"]


def plan_shards(members: list[str], shard_size: int) -> list[list[str]]:
    """Deterministically partition a membership list into sub-cliques.

    The paper's clique protocol partitions *by failure* ("dynamically
    partition itself into subcliques... then merge when conditions
    permit", §2.3); at a thousand nodes we additionally partition *by
    design*: synchronization responsibility is sharded so each member
    gossips mostly within its sub-clique and only shard representatives
    bridge between them — the sync traffic a member sees stays constant
    as the pool grows.

    Members are sorted, then cut into ``ceil(N / shard_size)`` contiguous
    near-equal chunks, so every node with the same membership view
    derives the same shards with no coordination. The first member of a
    shard is its *representative* for inter-shard rounds.
    """
    ordered = sorted(members)
    n = len(ordered)
    if n == 0:
        return []
    shard_size = max(int(shard_size), 1)
    n_shards = max((n + shard_size - 1) // shard_size, 1)
    base, extra = divmod(n, n_shards)
    shards: list[list[str]] = []
    start = 0
    for i in range(n_shards):
        width = base + (1 if i < extra else 0)
        shards.append(ordered[start:start + width])
        start += width
    return shards

CLQ_PROBE = "CLQ_PROBE"
CLQ_ALIVE = "CLQ_ALIVE"
CLQ_TOKEN = "CLQ_TOKEN"
CLQ_ELECT = "CLQ_ELECT"
CLQ_ELECT_OK = "CLQ_ELECT_OK"
CLQ_JOIN = "CLQ_JOIN"
CLIQUE_MTYPES = frozenset(
    {CLQ_PROBE, CLQ_ALIVE, CLQ_TOKEN, CLQ_ELECT, CLQ_ELECT_OK, CLQ_JOIN}
)

T_PROBE = "clq:probe"  # leader: start next probe round
T_ASSEMBLE = "clq:assemble"  # leader: close the probe round
T_WATCHDOG = "clq:watchdog"  # member: token freshness watchdog
T_ELECT = "clq:elect"  # candidate: election answer deadline


class CliqueState:
    """Sans-IO clique membership state machine for one pool member."""

    def __init__(
        self,
        self_id: str,
        universe: list[str],
        token_period: float = 10.0,
        assemble_wait: float = 3.0,
        token_timeout: float = 35.0,
        elect_timeout: float = 8.0,
    ) -> None:
        if self_id not in universe:
            universe = [*universe, self_id]
        self.self_id = self_id
        self.universe = sorted(set(universe))
        self.version = 0
        #: Presumptive initial leader: the bully winner of the full universe.
        self.leader = max(self.universe)
        self.members = list(self.universe)  # also resets the shard plans
        self.token_period = token_period
        self.assemble_wait = assemble_wait
        self.token_timeout = token_timeout
        self.elect_timeout = elect_timeout
        self._alive: set[str] = set()
        self._electing = False
        self._seen_version = 0
        #: Counters for tests/benchmarks.
        self.elections_started = 0
        self.tokens_seen = 0

    # -- helpers ------------------------------------------------------------
    @property
    def is_leader(self) -> bool:
        return self.leader == self.self_id

    # -- sharded sync ring ---------------------------------------------------
    @property
    def members(self) -> list[str]:
        """The current membership view. Replaced, never edited in place:
        assigning it is what invalidates the shard plans below."""
        return self._members

    @members.setter
    def members(self, members: list[str]) -> None:
        self._members = members
        #: shard_size -> (shards, index of our shard or None); filled on
        #: first ask, so sync rounds between membership changes look it up.
        self._shard_plans: dict[int, tuple[list[list[str]], Optional[int]]] = {}

    def _shard_plan(self, shard_size: int) -> tuple[list[list[str]], Optional[int]]:
        plan = self._shard_plans.get(shard_size)
        if plan is None:
            shards = plan_shards(self._members, shard_size)
            mine = next((i for i, shard in enumerate(shards)
                         if self.self_id in shard), None)
            plan = self._shard_plans[shard_size] = (shards, mine)
        return plan

    def shards(self, shard_size: int = 32) -> list[list[str]]:
        """The current membership cut into sync sub-cliques; see
        :func:`plan_shards`. Shared with later callers: do not edit."""
        return self._shard_plan(shard_size)[0]

    def shard_index(self, shard_size: int = 32) -> int:
        """Index of the shard this member belongs to (0 when unknown,
        e.g. before the first token names us)."""
        return self._shard_plan(shard_size)[1] or 0

    def my_shard(self, shard_size: int = 32) -> list[str]:
        shards, mine = self._shard_plan(shard_size)
        if mine is not None:
            return shards[mine]
        # Not yet in the membership view (joiner awaiting its first
        # token): gossip with whatever members we know about.
        return sorted(set(self.members) | {self.self_id})

    def is_representative(self, shard_size: int = 32) -> bool:
        """Whether this member speaks for its shard in inter-shard
        rounds (the shard's first member does)."""
        shard = self.my_shard(shard_size)
        return bool(shard) and shard[0] == self.self_id

    def _key(self) -> tuple[int, str]:
        return (self.version, self.leader)

    def _claim(self) -> dict:
        return {"v": self.version, "leader": self.leader}

    def _msg(self, mtype: str, body: dict) -> Message:
        full = dict(self._claim())
        full.update(body)
        return Message(mtype=mtype, sender=self.self_id, body=full)

    def _send_token_to(self, dst: str) -> Effect:
        return Send(dst, self._msg(CLQ_TOKEN, {
            "members": self.members,
            "universe": self.universe,
        }))

    def _abdicate_to(self, leader: str, version: int) -> list[Effect]:
        """Join a bigger live leader's regime."""
        was_leader = self.is_leader
        self.leader = leader
        self.version = version
        self._electing = False
        effects: list[Effect] = [SetTimer(T_WATCHDOG, self.token_timeout)]
        if was_leader:
            effects.append(LogLine(f"abdicating to {leader} (v{version})"))
            effects.append(CancelTimer(T_PROBE))
            effects.append(CancelTimer(T_ASSEMBLE))
            effects.append(CancelTimer(T_ELECT))
        return effects

    def _note_remote(self, message: Message) -> list[Effect]:
        """Epoch bookkeeping done for *every* clique message: track the
        version floor and yield to any bigger live leader."""
        body = message.body
        rv = int(body.get("v", 0))
        rl = str(body.get("leader", ""))
        self._seen_version = max(self._seen_version, rv)
        src = message.sender
        if rl == src and src > self.leader:
            # The sender itself claims leadership and outranks our leader:
            # it is live (it just sent this), so its regime wins.
            return self._abdicate_to(src, rv)
        return []

    # -- lifecycle ------------------------------------------------------------
    def start(self, now: float) -> list[Effect]:
        if self.is_leader:
            return self._begin_probe_round()
        return [SetTimer(T_WATCHDOG, self.token_timeout)]

    def _begin_probe_round(self) -> list[Effect]:
        self._alive = set()
        effects: list[Effect] = [
            Send(peer, self._msg(CLQ_PROBE, {}))
            for peer in self.universe
            if peer != self.self_id
        ]
        effects.append(SetTimer(T_ASSEMBLE, self.assemble_wait))
        return effects

    # -- message handling ------------------------------------------------------
    #: mtype -> handler method name.
    _HANDLERS = {
        CLQ_PROBE: "_on_probe",
        CLQ_ALIVE: "_on_alive",
        CLQ_TOKEN: "_on_token",
        CLQ_ELECT: "_on_elect",
        CLQ_ELECT_OK: "_on_elect_ok",
        CLQ_JOIN: "_on_join",
    }

    def on_message(self, message: Message, now: float) -> list[Effect]:
        handler = self._HANDLERS.get(message.mtype)
        if handler is None:
            return []
        effects = self._note_remote(message)
        effects.extend(getattr(self, handler)(message, now))
        return effects

    def _on_probe(self, message: Message, now: float) -> list[Effect]:
        src = message.sender
        if src not in self.universe:
            self.universe = sorted({*self.universe, src})
        effects: list[Effect] = [Send(src, self._msg(CLQ_ALIVE, {}))]
        if self.is_leader and src < self.self_id:
            # A smaller node (possibly a partition-era leader) is probing:
            # push our token at it so it folds into our clique.
            effects.append(self._send_token_to(src))
        return effects

    def _on_alive(self, message: Message, now: float) -> list[Effect]:
        if self.is_leader:
            self._alive.add(message.sender)
        return []

    def _on_token(self, message: Message, now: float) -> list[Effect]:
        body = message.body
        key = (int(body["v"]), str(body["leader"]))
        if key < self._key():
            return []  # stale token from an old regime
        self.tokens_seen += 1
        was_leader = self.is_leader
        self.version, self.leader = key
        self.members = list(body["members"])
        self.universe = sorted(set(self.universe) | set(body.get("universe", [])))
        self._electing = False
        effects: list[Effect] = [SetTimer(T_WATCHDOG, self.token_timeout)]
        if was_leader and not self.is_leader:
            effects.append(LogLine(f"abdicating to {self.leader} (v{self.version})"))
            effects.append(CancelTimer(T_PROBE))
            effects.append(CancelTimer(T_ASSEMBLE))
        return effects

    def _on_elect(self, message: Message, now: float) -> list[Effect]:
        src = message.sender
        if src >= self.self_id:
            return []
        # Bully: answer the lower-id challenger, then assert ourselves.
        effects: list[Effect] = [Send(src, self._msg(CLQ_ELECT_OK, {}))]
        if self.is_leader:
            # Make our regime dominate whatever epoch the challenger saw,
            # so the token we push is accepted immediately.
            if self._seen_version >= self.version:
                self.version = self._seen_version + 1
                self._seen_version = self.version
            effects.append(self._send_token_to(src))
        elif not self._electing:
            effects.extend(self._start_election(now))
        return effects

    def _on_elect_ok(self, message: Message, now: float) -> list[Effect]:
        if not self._electing:
            return []
        # A higher-id member lives; it will take over. Stand down and wait.
        self._electing = False
        return [SetTimer(T_WATCHDOG, self.token_timeout), CancelTimer(T_ELECT)]

    def _on_join(self, message: Message, now: float) -> list[Effect]:
        joiner = message.body.get("joiner") or message.sender
        if joiner not in self.universe:
            self.universe = sorted({*self.universe, joiner})
        if self.is_leader:
            # Fold the joiner in on the next probe round; greet immediately.
            return [self._send_token_to(joiner)]
        # First-hand JOIN at a non-leader: forward so the leader learns.
        if joiner != self.leader and message.body.get("joiner") is None:
            return [Send(self.leader, self._msg(CLQ_JOIN, {"joiner": joiner}))]
        return []

    # -- timer handling -----------------------------------------------------------
    def on_timer(self, key: str, now: float) -> list[Effect]:
        if key == T_ASSEMBLE:
            return self._close_probe_round(now)
        if key == T_PROBE:
            if self.is_leader:
                return self._begin_probe_round()
            return []
        if key == T_WATCHDOG:
            if self.is_leader:
                return []
            return self._start_election(now)
        if key == T_ELECT:
            if self._electing:
                # No higher-id member answered: seize leadership.
                return self._become_leader(now)
            return []
        return []

    def _close_probe_round(self, now: float) -> list[Effect]:
        if not self.is_leader:
            return []
        new_members = sorted(self._alive | {self.self_id})
        changed = new_members != sorted(self.members)
        if changed or self._seen_version > self.version:
            # New epoch: dominate every version we have witnessed so that
            # members from stale regimes accept this token.
            self.version = max(self.version, self._seen_version) + 1
            self._seen_version = self.version
            self.members = new_members
        effects: list[Effect] = [
            self._send_token_to(peer) for peer in self.members if peer != self.self_id
        ]
        effects.append(SetTimer(T_PROBE, max(self.token_period - self.assemble_wait, 0.1)))
        return effects

    def _start_election(self, now: float) -> list[Effect]:
        self._electing = True
        self.elections_started += 1
        higher = [p for p in self.universe if p > self.self_id]
        if not higher:
            return self._become_leader(now)
        effects: list[Effect] = [
            Send(peer, self._msg(CLQ_ELECT, {})) for peer in higher
        ]
        effects.append(SetTimer(T_ELECT, self.elect_timeout))
        return effects

    def _become_leader(self, now: float) -> list[Effect]:
        self._electing = False
        self.version = max(self.version, self._seen_version) + 1
        self._seen_version = self.version
        self.leader = self.self_id
        self.members = [self.self_id]
        return [LogLine(f"assuming clique leadership (v{self.version})"),
                *self._begin_probe_round()]

    # -- joining --------------------------------------------------------------
    def join_effects(self, contact_points: list[str]) -> list[Effect]:
        """Effects for a *new* pool member announcing itself (§2.3: "new
        Gossip processes registered themselves with one of the well-known
        sites")."""
        return [
            Send(peer, self._msg(CLQ_JOIN, {}))
            for peer in contact_points
            if peer != self.self_id
        ]

"""Distributed state exchange: Gossip pool, clique protocol, state stores."""

from .agent import GossipAgent
from .clique import CLIQUE_MTYPES, CliqueState, plan_shards
from .digest import (
    DIGEST_BUCKETS,
    StateDigest,
    bucket_of,
    freshness_hash,
    plan_exchange,
)
from .server import (
    GOS_DELTA,
    GOS_DIGEST,
    GOS_NEWCOMP,
    GOS_POLL,
    GOS_REG,
    GOS_REG_OK,
    GOS_STATE,
    GOS_SYNC,
    GOS_UPDATE,
    GossipServer,
    GossipStats,
)
from .state import (
    Comparator,
    ComparatorRegistry,
    StateRecord,
    StateStore,
    default_comparator,
)
from .swim import ALIVE, DEAD, SUSPECT, MemberView, SuspicionTable

__all__ = [
    "GossipAgent",
    "CLIQUE_MTYPES",
    "CliqueState",
    "plan_shards",
    "DIGEST_BUCKETS",
    "StateDigest",
    "bucket_of",
    "freshness_hash",
    "plan_exchange",
    "GossipServer",
    "GossipStats",
    "GOS_DELTA",
    "GOS_DIGEST",
    "GOS_NEWCOMP",
    "GOS_POLL",
    "GOS_REG",
    "GOS_REG_OK",
    "GOS_STATE",
    "GOS_SYNC",
    "GOS_UPDATE",
    "Comparator",
    "ComparatorRegistry",
    "StateRecord",
    "StateStore",
    "default_comparator",
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "MemberView",
    "SuspicionTable",
]

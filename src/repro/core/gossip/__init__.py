"""Distributed state exchange: Gossip pool, clique protocol, state stores."""

from ..._exports import lazy_exports

_EXPORTS = {
    ".agent": ("GossipAgent",),
    ".clique": ("CLIQUE_MTYPES", "CliqueState", "plan_shards"),
    ".digest": ("DIGEST_BUCKETS", "StateDigest", "bucket_of",
                "freshness_hash", "plan_exchange"),
    ".server": ("GossipServer", "GossipStats", "GOS_DELTA", "GOS_DIGEST",
                "GOS_NEWCOMP", "GOS_POLL", "GOS_REG", "GOS_REG_OK",
                "GOS_STATE", "GOS_SYNC", "GOS_UPDATE"),
    ".state": ("Comparator", "ComparatorRegistry", "StateRecord",
               "StateStore", "default_comparator"),
    ".swim": ("ALIVE", "SUSPECT", "DEAD", "MemberView", "SuspicionTable"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

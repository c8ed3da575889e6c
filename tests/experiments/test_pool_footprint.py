"""A pool member holds O(1) of the pool (DESIGN §15): every member with the
same membership view holds the same list, the whole pool holds one contact
list, per-member memory does not grow with the pool, and a token round's
body is rendered once however many members it reaches."""

import gc
import tracemalloc
from unittest import mock

from repro.core.gossip import clique
from repro.core.linguafranca import messages
from repro.experiments.bigpool import build_pool


def retained_per_host(n_hosts):
    """Bytes still allocated per host after build + 30 simulated seconds,
    everything counted: the contact list included, which the whole pool
    shares."""
    # Start from an empty process-wide view cache, so what earlier pools
    # left in it is not credited to this one.
    clique._VIEWS.clear()
    gc.collect()
    tracemalloc.start()
    try:
        pool = build_pool(n_hosts=n_hosts, seed=1998)
        pool.run(until=30.0)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return pool, retained / n_hosts


def test_per_member_memory_is_flat_in_pool_size():
    build_pool(n_hosts=32, seed=1).run(until=30.0)  # imports stay out of it
    _, small = retained_per_host(128)
    pool, large = retained_per_host(512)
    assert pool.converged()
    assert large <= 1.05 * small, (
        f"{small / 1024:.1f} KiB/host at 128 hosts, "
        f"{large / 1024:.1f} KiB/host at 512")
    assert len({id(g.clique.members) for g in pool.servers}) == 1
    assert len({id(g.clique.universe) for g in pool.servers}) == 1
    assert len({id(g.well_known) for g in pool.servers}) == 1
    assert pool.servers[0].pool_members() is pool.servers[1].clique.members


def test_one_token_round_is_encoded_once_for_every_member():
    with mock.patch.object(messages, "_wire_encoder",
                           wraps=messages._wire_encoder) as rendered:
        pool = build_pool(n_hosts=64, n_sites=4, n_records=8, seed=5)
        pool.run(until=30.0)
    sent = sum(d.telemetry.metrics.counter("msg.sent", mtype="CLQ_TOKEN").value
               for d in pool.drivers)
    tokens = [c for c in rendered.call_args_list
              if isinstance(c.args[0], dict) and "universe" in c.args[0]]
    assert sent == 63
    assert len(tokens) == 1
    assert all(len(g.pool_members()) == 64 for g in pool.servers)

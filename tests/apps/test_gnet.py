"""Tests for the G-Net-style distributed data mining application (the
``gnet.*`` kind)."""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.gnet import (
    GNET_KIND,
    PLANTED_PAIRS,
    CountMerger,
    count_supports,
    execute_task,
    frequent_itemsets,
    generate_transactions,
    make_tasks,
    mine_serial,
    task_cost,
)
from repro.control import Scenario, run_scenario
from repro.control.client import GatewayClient
from repro.explore.queue import ExploreQueue
from repro.live.harness import LiveWorld
from repro.live.topology import serve_topology

N_TX = 2000
N_ITEMS = 24
SEED = 3
MIN_SUPPORT = 0.25


def test_generation_reproducible_and_chunked():
    full = generate_transactions(100, N_ITEMS, SEED)
    again = generate_transactions(100, N_ITEMS, SEED)
    assert full == again
    # Chunked regeneration matches the full pass row for row.
    front = generate_transactions(60, N_ITEMS, SEED, offset=0)
    back = generate_transactions(40, N_ITEMS, SEED, offset=60)
    assert front + back == full


def test_baskets_sorted_unique():
    for basket in generate_transactions(50, N_ITEMS, SEED):
        assert basket == sorted(set(basket))
        assert all(0 <= i < N_ITEMS for i in basket)


def test_planted_pairs_are_frequent():
    items, pairs = mine_serial(N_TX, N_ITEMS, SEED, MIN_SUPPORT)
    for pair in PLANTED_PAIRS:
        assert pair in pairs, f"planted pair {pair} not mined"


def test_random_pairs_are_not_frequent():
    _, pairs = mine_serial(N_TX, N_ITEMS, SEED, MIN_SUPPORT)
    # Only the planted structure (and pairs involving its items) clears
    # a 25% support threshold; the vast majority of the 276 pairs do not.
    assert len(pairs) < 10


def test_count_supports_small_example():
    singles, pairs = count_supports([[1, 2], [1, 2, 3], [2]], 4)
    assert singles == {1: 2, 2: 3, 3: 1}
    assert pairs == {(1, 2): 2, (1, 3): 1, (2, 3): 1}


def test_frequent_itemsets_threshold():
    singles = {1: 10, 2: 4}
    pairs = {(1, 2): 4}
    items, fpairs = frequent_itemsets(singles, pairs, 10, 0.5)
    assert items == [1]
    assert fpairs == []


def test_tasks_cover_database_exactly():
    tasks = make_tasks(N_TX, N_ITEMS, SEED, chunk=300)
    assert sum(t["count"] for t in tasks) == N_TX
    offsets = sorted((t["offset"], t["count"]) for t in tasks)
    cursor = 0
    for offset, count in offsets:
        assert offset == cursor
        cursor += count
    assert all(task_cost(t) > 0 for t in tasks)
    assert all(t["kind"] == GNET_KIND and "id" not in t for t in tasks)


def test_distributed_mining_equals_serial():
    tasks = make_tasks(N_TX, N_ITEMS, SEED, chunk=250)
    report = run_scenario(Scenario(specs=tasks, clients=4))
    assert report["violations"] == []
    merger = CountMerger().fold(report["results"])
    assert merger.n_transactions == N_TX
    assert merger.mine(MIN_SUPPORT) == mine_serial(N_TX, N_ITEMS, SEED, MIN_SUPPORT)


def test_distributed_mining_with_worker_failure():
    tasks = make_tasks(800, N_ITEMS, SEED, chunk=100)
    # The first client dies holding its first unit; the reap requeues it.
    report = run_scenario(Scenario(specs=tasks, clients=3, victim="client",
                                   fault_at=0.1))
    assert report["violations"] == []
    assert report["gateway"]["work"]["requeued"] == 1
    merger = CountMerger().fold(report["results"])
    assert merger.mine(MIN_SUPPORT) == mine_serial(800, N_ITEMS, SEED, MIN_SUPPORT)


@given(chunk=st.integers(min_value=17, max_value=400),
       n_tx=st.integers(min_value=50, max_value=600))
@settings(max_examples=10, deadline=None)
def test_property_partitioned_counts_equal_serial(chunk, n_tx):
    """Any partitioning of the database merges to the same counts."""
    tasks = make_tasks(n_tx, N_ITEMS, SEED, chunk=chunk)
    merger = CountMerger().fold(execute_task(t) for t in tasks)
    serial_singles, serial_pairs = count_supports(
        generate_transactions(n_tx, N_ITEMS, SEED), N_ITEMS)
    assert merger.singles == serial_singles
    assert merger.pairs == serial_pairs


def test_live_gnet_batch_survives_a_client_sigkill():
    """The same kind on real processes: a batch through the live
    gateway, one client SIGKILLed while both hold a unit. The reap
    requeues the dead client's partition, every job completes exactly
    once, and the merged counts are the serial ones."""
    tasks = make_tasks(24_000, N_ITEMS, SEED, chunk=3_000)
    with LiveWorld(serve_topology(clients=2), duration=20.0,
                   grace=10.0) as world:
        with GatewayClient(world.http_contact, timeout=3.0) as client:
            queue = ExploreQueue(client, pump=world.pump)
            world.wait_healthy(client)
            queue.push_tasks(tasks)
            deadline = time.monotonic() + 10.0
            while (client.queue()["state_assigned"] < 2
                   and time.monotonic() < deadline):
                world.pump(0.05)
            assert world.supervisor.kill("cli0") is not None
            results = queue.pop_results(min_results=len(tasks), timeout=15.0)
        sweep = world.sweep_jobs(queue.pushed_ids)
        nodes = world.drain()
    records = sweep["records"].values()
    assert [record["state"] for record in records] == ["done"] * len(tasks)
    assert sweep["work"]["completed"] == len(tasks)   # exactly once
    assert sum(record["requeues"] for record in records) >= 1
    assert nodes["cli0"]["restarts"] >= 1
    by_id = {record["id"]: record["result"] for record in results}
    merger = CountMerger().fold(by_id[job_id] for job_id in queue.pushed_ids)
    assert merger.n_transactions == 24_000
    assert merger.mine(MIN_SUPPORT) == mine_serial(24_000, N_ITEMS, SEED,
                                                   MIN_SUPPORT)

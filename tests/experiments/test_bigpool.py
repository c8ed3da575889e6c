"""Big-pool world builder: scale worlds stay correct and deterministic."""

import json

import pytest

from repro.experiments.bigpool import (
    _STAT_FIELDS,
    PoolConfig,
    build_pool,
    churn_plan,
    export_json,
    export_state,
    inject_write,
    run_until_converged,
)


def small(n_hosts=32, **kw):
    kw.setdefault("n_sites", 4)
    kw.setdefault("n_records", 8)
    return build_pool(n_hosts=n_hosts, **kw)


def test_pool_starts_converged():
    pool = small()
    assert pool.converged()
    pool.run(until=30.0)
    assert pool.converged()
    # Pre-seeded records are shared objects, not per-member copies.
    assert pool.servers[0].freshest["POOL_STATE_0000"] is (
        pool.servers[1].freshest["POOL_STATE_0000"])


def test_write_spreads_to_every_member():
    pool = small()
    pool.run(until=20.0)
    record = inject_write(pool)
    result = run_until_converged(pool, deadline=600.0)
    assert result["converged"]
    for server in pool.servers:
        assert server.freshest[record.mtype].origin == record.origin


def test_convergence_is_logarithmic_ish():
    rounds = {}
    for n in (16, 64):
        pool = small(n_hosts=n)
        pool.run(until=20.0)
        inject_write(pool)
        result = run_until_converged(pool, deadline=600.0)
        assert result["converged"]
        rounds[n] = result["rounds"]
    # 4x the pool must cost far less than 4x the rounds.
    assert rounds[64] <= 2.5 * max(rounds[16], 1.0)


def test_same_seed_runs_export_identically():
    exports = []
    for _ in range(2):
        pool = small()
        pool.run(until=20.0)
        inject_write(pool)
        run_until_converged(pool, deadline=300.0)
        exports.append(export_json(pool))
    assert exports[0] == exports[1]


def test_different_seeds_diverge_in_traffic_not_state():
    totals = []
    for seed in (11, 12):
        pool = small(seed=seed)
        pool.run(until=20.0)
        inject_write(pool)
        run_until_converged(pool, deadline=300.0)
        snap = export_state(pool)
        totals.append(snap["totals"]["bytes_sent"])
        assert pool.converged()
    assert totals[0] != totals[1]  # different peer picks, same outcome


def test_export_is_json_stable():
    pool = small()
    pool.run(until=25.0)
    snap = export_state(pool)
    assert json.loads(json.dumps(snap)) == snap
    assert len(snap["members"]) == 32
    assert snap["totals"]["digest_rounds"] > 0
    # The recorded pool_converge export SHA depends on these staying put.
    assert '"sync_mode":"digest"' in export_json(pool)
    assert set(_STAT_FIELDS) <= set(snap["totals"])


def test_churn_plan_is_deterministic_and_survivable():
    config = PoolConfig(n_hosts=32, n_sites=4, n_records=8)
    plan_a = churn_plan(config)
    plan_b = churn_plan(config)
    assert [repr(i) for i in plan_a.injectors] == [
        repr(i) for i in plan_b.injectors]
    pool = build_pool(config)
    churn_plan(config).install(pool.env, pool.network)
    pool.run(until=40.0)
    inject_write(pool)
    result = run_until_converged(pool, deadline=900.0)
    # The pool converges among surviving members despite crashes and the
    # partition (the partition heals at 90+90; crashed hosts stay out of
    # the convergence check via active_servers).
    assert result["converged"]
    assert len(pool.active_servers()) < len(pool.servers)


def test_config_validation():
    with pytest.raises(ValueError):
        build_pool(PoolConfig(n_hosts=8), n_hosts=16)

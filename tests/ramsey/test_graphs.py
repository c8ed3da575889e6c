"""Tests for colorings and monochromatic-clique counting."""

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ramsey.graphs import (
    BLUE,
    RED,
    Coloring,
    OpCounter,
    _count_cliques_np,
    _count_cliques_py,
    count_mono_cliques,
    count_mono_cliques_with_edge,
)


def brute_force_mono(coloring, n):
    """Reference count by direct subset enumeration."""
    total = 0
    for subset in combinations(range(coloring.k), n):
        for color in (RED, BLUE):
            if all(coloring.color(u, v) == color for u, v in combinations(subset, 2)):
                total += 1
    return total


def test_coloring_basics():
    c = Coloring(4)
    assert c.color(0, 1) == BLUE  # default all-blue
    c.flip(0, 1)
    assert c.color(0, 1) == RED
    assert c.color(1, 0) == RED  # symmetric
    c.flip(0, 1)
    assert c.color(0, 1) == BLUE


def test_coloring_rejects_self_edge():
    c = Coloring(4)
    with pytest.raises(ValueError):
        c.color(2, 2)
    with pytest.raises(ValueError):
        Coloring.from_edges(4, [(1, 1)])


def test_coloring_validates_masks():
    with pytest.raises(ValueError):
        Coloring(3, [1 << 5, 0, 0])  # bit beyond k
    with pytest.raises(ValueError):
        Coloring(3, [2, 0, 0])  # asymmetric
    with pytest.raises(ValueError):
        Coloring(3, [1, 2, 4])  # self loops


def test_coloring_too_small():
    with pytest.raises(ValueError):
        Coloring(1)


def test_all_red_counts_binomial():
    k = 8
    c = Coloring.from_edges(k, ((u, v) for u in range(k) for v in range(u + 1, k)))
    for n in (3, 4, 5):
        assert count_mono_cliques(c, n) == comb(k, n)


def test_all_blue_counts_binomial():
    k = 7
    c = Coloring(k)
    assert count_mono_cliques(c, 3) == comb(7, 3)


def test_random_coloring_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(10):
        k = int(rng.integers(4, 9))
        c = Coloring.random(k, rng)
        for n in (3, 4):
            assert count_mono_cliques(c, n) == brute_force_mono(c, n)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_property_count_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(4, 10))
    n = int(rng.integers(3, 5))
    c = Coloring.random(k, rng)
    assert count_mono_cliques(c, n) == brute_force_mono(c, n)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_property_flip_delta_consistent(seed):
    """with-edge counting predicts the exact energy change of a flip."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(5, 10))
    n = int(rng.integers(3, 5))
    c = Coloring.random(k, rng)
    u = int(rng.integers(k - 1))
    v = int(rng.integers(u + 1, k))
    before_total = count_mono_cliques(c, n)
    before_edge = count_mono_cliques_with_edge(c, u, v, n)
    c.flip(u, v)
    after_total = count_mono_cliques(c, n)
    after_edge = count_mono_cliques_with_edge(c, u, v, n)
    assert after_total - before_total == after_edge - before_edge


def test_with_edge_counts_triangles():
    # Triangle 0-1-2 all red; edge (0,1) participates in exactly one.
    c = Coloring.from_edges(5, [(0, 1), (1, 2), (0, 2)])
    assert count_mono_cliques_with_edge(c, 0, 1, 3) == 1
    # Blue edge (3,4): blue common neighborhood of {3,4} is {0,1,2}
    # minus red adjacencies — all of 0,1,2 are blue-adjacent to 3 and 4.
    assert count_mono_cliques_with_edge(c, 3, 4, 3) == 3


def test_hex_roundtrip():
    rng = np.random.default_rng(7)
    for k in (2, 5, 9, 17):
        c = Coloring.random(k, rng)
        assert Coloring.from_hex(k, c.to_hex()) == c


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_property_hex_roundtrip(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 20))
    c = Coloring.random(k, rng)
    assert Coloring.from_hex(k, c.to_hex()) == c


def test_copy_is_independent():
    rng = np.random.default_rng(1)
    a = Coloring.random(6, rng)
    b = a.copy()
    b.flip(0, 1)
    assert a != b


def test_edges_iterator_complete():
    rng = np.random.default_rng(2)
    c = Coloring.random(6, rng)
    edges = list(c.edges())
    assert len(edges) == comb(6, 2)
    for u, v, color in edges:
        assert color == c.color(u, v)


def test_op_counter_counts_and_resets():
    ops = OpCounter()
    rng = np.random.default_rng(3)
    c = Coloring.random(10, rng)
    count_mono_cliques(c, 4, ops)
    assert ops.ops > 0
    first = ops.reset()
    assert first > 0
    assert ops.ops == 0


def test_op_count_scales_with_problem_size():
    """Bigger k must cost more metered ops (sanity of the meter)."""
    rng = np.random.default_rng(4)
    costs = []
    for k in (8, 16, 24):
        ops = OpCounter()
        c = Coloring.random(k, np.random.default_rng(0))
        count_mono_cliques(c, 4, ops)
        costs.append(ops.ops)
    assert costs[0] < costs[1] < costs[2]


@pytest.mark.parametrize("k,n", [(12, 4), (43, 5), (9, 3)])
def test_count_cliques_np_matches_reference(k, n):
    """The vectorized clique count charges exactly the recursive
    kernel's op meter, for both color classes of a coloring."""
    coloring = Coloring.random(k, np.random.default_rng(k + n))
    total = vec_ops = 0
    ops = OpCounter()
    for masks in (coloring.red, coloring.blue):
        count, counted = _count_cliques_np(
            np.array(masks, dtype=np.uint64), k, n)
        assert count == _count_cliques_py(masks, k, n, ops)
        total += count
        vec_ops += counted
    assert vec_ops == ops.ops
    assert total == count_mono_cliques(coloring, n)

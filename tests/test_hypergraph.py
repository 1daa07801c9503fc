from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hlab.errors import MalformedSubsetError, ParameterError, SizeLimitError
from hlab.hypergraph import (RUniformGraph, _colex_ranks, canonical_code,
                             complete_graph,
                             graph_from_edges, induced_rank_table, orbit_masks,
                             permute_graph, rank_subset, subsets_colex)
from hlab.hypergraph import unrank_subset as colex_unrank
from hlab.rng import Rng

from oracles import induced_subgraph, naive_rank, random_graph, unrank_subset


@st.composite
def graphs(draw, min_n=2, max_n=6, r=2):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << comb(n, r)) - 1))
    return RUniformGraph(n=n, r=r, edge_mask=mask)


def test_rank_examples():
    assert rank_subset((0, 1), 2) == 0
    assert rank_subset((2, 3), 2) == 5
    assert rank_subset((0, 1, 2), 3) == 0


def test_unrank_examples():
    assert unrank_subset(0, 2) == (0, 1)
    assert unrank_subset(5, 2) == (2, 3)
    assert unrank_subset(4, 2) == (1, 3)


def test_rank_unrank_inverse_exhaustive():
    for r in range(1, 6):
        for s in combinations(range(21), r):
            assert unrank_subset(rank_subset(s, r), r) == s


def test_colex_unrank_inverts_rank():
    for r in range(1, 6):
        for s in combinations(range(16), r):
            assert colex_unrank(rank_subset(s, r), r) == s
    assert colex_unrank(comb(230, 3) - 1, 3) == (227, 228, 229)
    assert colex_unrank(comb(2**70, 2), 2) == (0, 2**70)


@given(st.integers(1, 4), st.integers(0, 10**5))
def test_colex_unrank_matches_scan(r, k):
    assert colex_unrank(k, r) == unrank_subset(k, r)


@given(st.integers(1, 4), st.data())
def test_rank_matches_colex_scan(r, data):
    s = tuple(sorted(data.draw(
        st.sets(st.integers(0, 12), min_size=r, max_size=r))))
    assert rank_subset(s, r) == naive_rank(s, r)


def test_rank_rejects_malformed():
    with pytest.raises(MalformedSubsetError):
        rank_subset((1, 0), 2)
    with pytest.raises(MalformedSubsetError):
        rank_subset((1, 1), 2)
    with pytest.raises(MalformedSubsetError):
        rank_subset((0, 1, 2), 2)


def test_subsets_colex_order():
    subs = subsets_colex(4, 2)
    assert subs == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
    for k, s in enumerate(subs):
        assert rank_subset(s, 2) == k


def test_subsets_colex_all_small_cases():
    for n in range(9):
        for r in range(n + 2):
            want = sorted(combinations(range(n), r), key=lambda s: s[::-1])
            assert subsets_colex(n, r) == tuple(want)


@given(st.integers(0, 12), st.sampled_from([20, 300]), st.data())
def test_colex_ranks_match_rank_subset(r, top, data):
    # top 300 with r >= 11 gives ranks past int64 (Python ints).
    k = data.draw(st.integers(max(0, r - 1), r + 2))
    rows = data.draw(st.lists(st.lists(st.integers(0, top), min_size=k,
                                       max_size=k, unique=True).map(sorted),
                              max_size=3))
    ranks = _colex_ranks(np.array(rows, dtype=np.int64).reshape(len(rows), k),
                         r)
    local = subsets_colex(k, r)
    assert ranks.shape == (len(rows), len(local))
    for row, got in zip(rows, ranks.tolist()):
        assert got == [rank_subset([row[i] for i in loc], r) for loc in local]


def test_induced_rank_table_rows():
    table = induced_rank_table(5, 3, 2)
    subs = subsets_colex(5, 3)
    local = subsets_colex(3, 2)
    for row, d in zip(table, subs):
        want = [rank_subset(tuple(d[i] for i in loc), 2) for loc in local]
        assert row.tolist() == want


def test_graph_invariants():
    with pytest.raises(ParameterError):
        RUniformGraph(n=3, r=2, edge_mask=1 << 3)  # only C(3,2)=3 bits
    with pytest.raises(ParameterError):
        RUniformGraph(n=3, r=0, edge_mask=0)
    # fewer than r vertices is allowed but forces an edgeless graph
    assert RUniformGraph(n=1, r=2, edge_mask=0).num_edges == 0


def test_graph_from_edges_roundtrip():
    G = graph_from_edges(4, 2, [(0, 1), (2, 3)])
    assert G.edges() == ((0, 1), (2, 3))


def test_induced_subgraph_examples():
    c4 = graph_from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
    path = induced_subgraph(c4, (0, 1, 2))
    assert path.edges() == ((0, 1), (1, 2))
    assert induced_subgraph(c4, (0, 1, 2, 3)) == c4
    k43 = complete_graph(4, 3)
    for d in combinations(range(4), 3):
        assert induced_subgraph(k43, d) == complete_graph(3, 3)


@given(graphs(min_n=3, max_n=7), st.data())
def test_restriction_composes(G, data):
    d1 = tuple(sorted(data.draw(
        st.sets(st.integers(0, G.n - 1), min_size=3, max_size=G.n))))
    d2 = tuple(sorted(data.draw(
        st.sets(st.integers(0, len(d1) - 1), min_size=2, max_size=len(d1)))))
    lhs = induced_subgraph(induced_subgraph(G, d1), d2)
    rhs = induced_subgraph(G, tuple(d1[i] for i in d2))
    assert lhs == rhs


def test_canonical_orbit_collapses():
    p3_plus_isolated = graph_from_edges(4, 2, [(0, 1), (1, 2)])
    codes = {canonical_code(permute_graph(p3_plus_isolated, sigma))
             for sigma in permutations(range(4))}
    assert len(codes) == 1


def test_canonical_separates_k3_p3(k3, p3):
    assert canonical_code(k3) != canonical_code(p3)


def test_eleven_classes_on_four_vertices():
    codes = {canonical_code(RUniformGraph(4, 2, m)) for m in range(64)}
    assert len(codes) == 11


def test_canonical_permutation_invariant_exhaustive():
    for n in range(2, 6):
        for mask in range(1 << comb(n, 2)):
            G = RUniformGraph(n, 2, mask)
            code = canonical_code(G)
            for sigma in permutations(range(n)):
                assert canonical_code(permute_graph(G, sigma)) == code
            if n == 5 and mask > 200:
                break  # the full 5-vertex sweep is covered by mask<=200


@given(st.integers(0, 2**15 - 1), st.permutations(range(7)))
def test_canonical_permutation_invariant_random(mask, sigma):
    G = RUniformGraph(7, 2, mask % (1 << comb(7, 2)))
    assert canonical_code(permute_graph(G, tuple(sigma))) == canonical_code(G)


def test_canonical_size_limit():
    with pytest.raises(SizeLimitError):
        canonical_code(RUniformGraph(11, 2, 0))
    with pytest.raises(SizeLimitError):
        canonical_code(RUniformGraph(9, 3, 0))


@given(graphs(min_n=2, max_n=6))
def test_canonical_code_is_orbit_minimum(G):
    assert canonical_code(G) == min(
        permute_graph(G, sigma).edge_mask for sigma in permutations(range(G.n)))


def test_orbit_masks_size_divides_factorial(c4):
    orbit = orbit_masks(c4)
    assert c4.edge_mask in orbit
    assert len(orbit) == 3  # C4 has 24/|Aut| = 24/8 = 3 labelings


def test_random_graph_extremes():
    rng = Rng(0)
    assert random_graph(5, 2, Fraction(0), rng) == RUniformGraph(5, 2, 0)
    assert random_graph(5, 2, Fraction(1), rng) == complete_graph(5, 2)
    with pytest.raises(ParameterError):
        random_graph(5, 2, Fraction(3, 2), rng)


def test_random_graph_deterministic():
    a = random_graph(6, 2, Fraction(1, 2), Rng(11, 4))
    b = random_graph(6, 2, Fraction(1, 2), Rng(11, 4))
    assert a == b


def test_random_graph_mean_edges_within_3_sigma():
    draws = 10_000
    total = 0
    for i in range(draws):
        total += random_graph(8, 2, Fraction(1, 2), Rng(77, i)).num_edges
    mean = total / draws
    sigma_mean = (28 * 0.25) ** 0.5 / draws ** 0.5
    assert abs(mean - 14) <= 3 * sigma_mean


def test_random_graph_r3():
    G = random_graph(6, 3, Fraction(1, 2), Rng(5))
    assert G.r == 3 and G.n == 6
    assert 0 <= G.edge_mask < 1 << comb(6, 3)

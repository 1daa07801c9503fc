import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hlab.cli import _render
import hlab.extremal as extremal
from hlab.errors import (ConstructionError, DegenerateGraphError,
                         FeasibilityError, InputError, ParameterError,
                         SizeLimitError)
from hlab.extremal import (ExStarResult, _feasible_table, _free_table, exstar,
                           exstar_to_json_obj, tau, witness_check)
from hlab.hypergraph import (RUniformGraph, complete_graph, graph_from_edges,
                             permute_graph)

from oracles import (check_partition, exstar_exhaustive,
                     exstar_witness_exhaustive, feasible_table_naive,
                     feasible_table_ternary, free_table_naive, graph_classes,
                     max_edges_clique_free, tau_exhaustive, unrank_subset)

K3 = complete_graph(3, 2)
K4 = complete_graph(4, 2)
P3 = graph_from_edges(3, 2, [(0, 1), (1, 2)])
C4 = graph_from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])


@st.composite
def graphs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << comb(n, 2)) - 1))
    return RUniformGraph(n=n, r=2, edge_mask=mask)


def test_tau_examples():
    assert tau(C4).t == 2
    assert tau(P3).t == 1
    assert tau(K3).t == 2
    assert tau(K4).t == 3


def test_tau_certificate_soundness():
    for F in (C4, P3, K3, K4):
        res = tau(F)
        # No partition exists at level t for witness_s.
        assert not any(
            check_partition(F, parts, res.witness_s)
            for parts in candidate_partitions(F, res.witness_s, res.t))
        # Every s at level t+1 comes with a checkable partition.
        assert len(res.refutations) == res.t + 2
        for s, parts in enumerate(res.refutations):
            assert len(parts) == res.t + 1
            assert check_partition(F, parts, s)


def candidate_partitions(F, s, t):
    # All assignments of vertices to t labeled parts.
    def assign(v, parts):
        if v == F.n:
            yield tuple(tuple(p) for p in parts)
            return
        for i in range(t):
            parts[i].append(v)
            yield from assign(v + 1, parts)
            parts[i].pop()

    yield from assign(0, [[] for _ in range(t)])


@given(graphs(min_n=1, max_n=6))
def test_tau_matches_exhaustive_oracle(F):
    expect = tau_exhaustive(F)
    if expect is None or expect == 0:
        assert tau(F).t == 0
    else:
        assert tau(F).t == expect


@given(graphs(min_n=2, max_n=6), st.permutations(range(6)))
def test_tau_isomorphism_invariant(F, perm):
    sigma = tuple(sorted(range(F.n), key=lambda i: perm[i]))
    assert tau(F).t == tau(permute_graph(F, sigma)).t


def test_tau_complete_graphs():
    for k in range(2, 7):
        assert tau(complete_graph(k, 2)).t == k - 1


def test_tau_degenerate_and_bounds():
    single = RUniformGraph(n=1, r=2, edge_mask=0)
    assert tau(single).t == 0
    with pytest.raises(DegenerateGraphError):
        tau(RUniformGraph(n=0, r=2, edge_mask=0))
    with pytest.raises(ParameterError):
        tau(complete_graph(4, 3))
    with pytest.raises(SizeLimitError):
        tau(RUniformGraph(n=13, r=2, edge_mask=0))


def test_witness_bipartite_edges_triangle_free():
    e = [(0, 2), (0, 3), (1, 2), (1, 3)]
    res = witness_check(4, K3, e, [])
    assert res.ok
    assert res.counterexample is None


def test_witness_triangle_inside_e():
    res = witness_check(4, K3, [(0, 1), (0, 2), (1, 2), (2, 3)], [])
    assert not res.ok
    x = res.counterexample
    assert set(x) >= {(0, 1), (0, 2), (1, 2)} or witness_is_bad(4, x)


def witness_is_bad(n, x):
    from hlab.family import count_induced, normalize_family
    G = graph_from_edges(n, 2, x)
    return count_induced(G, normalize_family([K3])) > 0


def test_witness_base_completion():
    res = witness_check(3, K3, [(0, 1)], [(0, 2), (1, 2)])
    assert not res.ok
    assert res.counterexample == ((0, 1),)


def test_witness_counterexample_is_real():
    res = witness_check(5, K3, [(0, 1), (1, 2), (0, 2)], [(3, 4)])
    assert not res.ok
    combined = list(res.counterexample) + [(3, 4)]
    assert witness_is_bad(5, combined)


def test_witness_input_validation():
    with pytest.raises(InputError):
        witness_check(4, K3, [(0, 1)], [(0, 1)])
    with pytest.raises(InputError):
        witness_check(4, K3, [(0, 7)], [])
    with pytest.raises(InputError):
        witness_check(4, K3, [(0, 1), (1, 0)], [])
    with pytest.raises(FeasibilityError):
        witness_check(12, K3, [], [])


@given(st.data())
def test_witness_downward_closure(data):
    n = data.draw(st.integers(3, 5))
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    e = data.draw(st.sets(st.sampled_from(all_pairs), max_size=6))
    rest = [p for p in all_pairs if p not in e]
    e0 = data.draw(st.sets(st.sampled_from(rest), max_size=4)) if rest else set()
    full = witness_check(n, K3, sorted(e), sorted(e0))
    if full.ok:
        sub = data.draw(st.sets(st.sampled_from(sorted(e)), max_size=len(e))
                        if e else st.just(set()))
        assert witness_check(n, K3, sorted(sub), sorted(e0)).ok


@pytest.mark.parametrize("F", [
    complete_graph(2, 2), K3, P3,
    graph_from_edges(4, 2, [(0, 1), (1, 2), (2, 3)]), C4, K4,
    RUniformGraph(3, 2, 0)], ids=["K2", "K3", "P3", "P4", "C4", "K4", "E3"])
def test_exstar_result_matches_witness_oracle(F):
    for n in range(1, 6):
        value, e_mask, e0_mask = exstar_witness_exhaustive(n, F)
        pairs = [unrank_subset(k, 2) for k in range(comb(n, 2))]

        def edges(mask):
            return tuple(pairs[k] for k in range(len(pairs)) if mask >> k & 1)

        assert exstar(n, F) == ExStarResult(
            value=value, edges=edges(e_mask), base_edges=edges(e0_mask))


def test_exstar_n6_triangle_pinned():
    assert exstar(6, K3) == ExStarResult(
        value=9,
        edges=((0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (0, 5), (1, 5),
               (2, 5)),
        base_edges=())


# Every graph on 2-4 vertices, one per isomorphism class.
SMALL_GRAPHS = [F for h in (2, 3, 4) for F in graph_classes(h)]


def test_small_graph_classes():
    assert [len(graph_classes(h)) for h in (2, 3, 4)] == [2, 4, 11]


@pytest.mark.parametrize("n", range(1, 7))
def test_feasible_table_matches_references_on_every_e(n):
    # Below C(n,2) = 6 the kernel's one word is partly filled; up to 6
    # bits the definitional oracle decides every E, and past them the
    # ternary pass, itself checked against the definition below 6 bits.
    nbits = comb(n, 2)
    for F in SMALL_GRAPHS:
        if nbits <= 6:
            free = free_table_naive(n, F)
            want = feasible_table_naive(free, nbits)
            assert feasible_table_ternary(free, nbits).tolist() == want
            free = np.array(free, dtype=bool)
        else:
            free = _free_table(n, F)
            want = feasible_table_ternary(free, nbits).tolist()
        got = _feasible_table(free, nbits)
        assert got.dtype == bool
        assert got.tolist() == want


def test_exstar_refuses_a_feasible_e_with_no_base(monkeypatch):
    # Marked feasible, E = K3's three edges has no base: X = E is K3.
    monkeypatch.setattr(extremal, "_feasible_table",
                        lambda free, nbits: np.ones(1 << nbits, dtype=bool))
    with pytest.raises(ConstructionError, match="no base E0"):
        exstar(3, K3)


def test_exstar_memory():
    # The ternary byte table behind the old pass peaked at 31.9 MiB.
    tracemalloc.start()
    try:
        res = exstar(6, K3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value == 9
    assert peak < 4 << 20


def test_exstar_triangle_values():
    for n, expect in ((3, 2), (4, 4), (5, 6)):
        res = exstar(n, K3)
        assert res.value == expect
        assert res.value == exstar_exhaustive(n, K3)


def test_exstar_witness_is_checkable():
    res = exstar(5, K3)
    assert len(res.edges) == res.value
    assert not set(res.edges) & set(res.base_edges)
    assert witness_check(5, K3, res.edges, res.base_edges).ok


def test_exstar_matches_turan_for_complete_f():
    # For complete F the union E + E0 must stay F-free, so ex* equals
    # the clique-free edge maximum.
    for n in range(3, 6):
        assert exstar(n, K3).value == max_edges_clique_free(n, 3)
    for n in range(4, 6):
        assert exstar(n, K4).value == max_edges_clique_free(n, 4)


def test_exstar_exhaustive_oracle_small():
    for F in (P3, C4):
        for n in range(2, 5):
            assert exstar(n, F).value == exstar_exhaustive(n, F)


def test_exstar_monotone_in_n():
    vals = [exstar(n, K3).value for n in range(2, 7)]
    assert vals == sorted(vals)


def test_exstar_p3_small():
    assert exstar(3, P3).value == exstar_exhaustive(3, P3)


def test_exstar_bounds():
    with pytest.raises(FeasibilityError):
        exstar(7, K3)
    with pytest.raises(ParameterError):
        exstar(0, K3)
    with pytest.raises(ParameterError):
        exstar(4, complete_graph(3, 3))


def test_exstar_oversized_f_never_fits():
    # C4 cannot fit in 3 vertices, so every edge set is feasible.
    res = exstar(3, C4)
    assert res.value == comb(3, 2)
    assert res.base_edges == ()


def test_json_objects():
    res = tau(C4)
    obj = _render(res)
    assert list(obj) == ["t", "witness_s", "refutations"]
    assert obj["t"] == 2
    assert obj["witness_s"] == res.witness_s
    assert obj["refutations"] == [[list(part) for part in p]
                                  for p in res.refutations]
    ex = exstar_to_json_obj(exstar(4, K3))
    assert ex["value"] == 4
    assert len(ex["E"]) == 4

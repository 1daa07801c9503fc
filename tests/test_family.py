from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlab.errors import ConstructionError, ParameterError, SizeLimitError
from hlab.family import (_COMPARE_MAX_ORBIT, _compare_kernel, _contains_rows,
                         _gather_kernel, batch_contains, count_induced,
                         family_orbit, family_orbit_lookup, normalize_family)
from hlab.hypergraph import (RUniformGraph, complete_graph, graph_from_edges,
                             permute_graph)
from hlab.measure import EdgePredicate, _rule
from hlab.rng import Rng

from oracles import (induced_subgraph, naive_contains, naive_count_induced,
                     random_graph)


def cycle(n):
    return graph_from_edges(n, 2, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return graph_from_edges(n, 2, [(i, i + 1) for i in range(n - 1)])


K3 = complete_graph(3, 2)
P3 = graph_from_edges(3, 2, [(0, 1), (1, 2)])
C4 = cycle(4)


@st.composite
def graphs(draw, min_n=2, max_n=6, r=2):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << comb(n, r)) - 1))
    return RUniformGraph(n=n, r=r, edge_mask=mask)


def test_normalize_dedupes_isomorphs(k3):
    relabeled = permute_graph(complete_graph(3, 2), (2, 0, 1))
    fam = normalize_family([k3, relabeled])
    assert len(fam.members) == 1
    assert fam.t == 3
    assert fam.r == 2


def test_normalize_mixed_orders(k3, c4):
    fam = normalize_family([c4, k3])
    assert len(fam.members) == 2
    assert fam.t == 3
    assert fam.orders() == (3, 4)


def test_normalize_single_member_t(c4):
    assert normalize_family([c4]).t == 4


def test_normalize_rejects_empty():
    with pytest.raises(ConstructionError):
        normalize_family([])


def test_normalize_rejects_mixed_r(k3):
    tri3 = complete_graph(3, 3)
    with pytest.raises(ConstructionError):
        normalize_family([k3, tri3])


def test_normalize_rejects_undersized_member():
    with pytest.raises(ConstructionError):
        normalize_family([RUniformGraph(n=2, r=3, edge_mask=0)])


def test_normalize_member_order_stable(k3, c4, p3):
    fam = normalize_family([c4, k3, p3])
    orders = [m.n for m in fam.members]
    assert orders == sorted(orders)


def test_contains_examples(k3, k4, c4, p3):
    famk3 = normalize_family([k3])
    famp3 = normalize_family([p3])
    assert count_induced(k4, famk3) > 0
    assert count_induced(c4, famk3) == 0
    assert count_induced(cycle(5), famp3) > 0


def test_count_examples(k3, k4, c4, p3):
    assert count_induced(k4, normalize_family([k3])) == 4
    assert count_induced(c4, normalize_family([p3])) == 4
    assert count_induced(cycle(5), normalize_family([p3])) == 5


def test_uniformity_mismatch(k3):
    fam = normalize_family([complete_graph(3, 3)])
    with pytest.raises(ParameterError):
        count_induced(k3, fam)
    with pytest.raises(ParameterError):
        batch_contains(np.zeros(1, dtype=np.uint64), 3, 2, fam)


def test_count_oracle_exhaustive_small(k3, p3):
    # Naive double loop (subsets times permutations) on all 2-graphs, n <= 5.
    fams = [normalize_family([k3]), normalize_family([p3]),
            normalize_family([k3, p3])]
    for n in range(2, 6):
        for mask in range(1 << comb(n, 2)):
            G = RUniformGraph(n=n, r=2, edge_mask=mask)
            for fam in fams:
                expect = naive_count_induced(G, fam.members)
                assert count_induced(G, fam) == expect


@given(graphs(max_n=7))
def test_count_oracle_random(G):
    fam = normalize_family([C4])
    assert count_induced(G, fam) == naive_count_induced(G, fam.members)


@given(graphs(), st.permutations(range(6)))
def test_count_isomorphism_invariant(G, perm):
    sigma = tuple(sorted(range(G.n), key=lambda i: perm[i]))
    fam = normalize_family([K3, P3])
    assert count_induced(G, fam) == count_induced(permute_graph(G, sigma), fam)


@given(graphs(min_n=3), st.data())
def test_hereditary(G, data):
    fam = normalize_family([K3])
    size = data.draw(st.integers(3, G.n))
    d = tuple(sorted(data.draw(
        st.sets(st.integers(0, G.n - 1), min_size=size, max_size=size))))
    if count_induced(induced_subgraph(G, d), fam) > 0:
        assert count_induced(G, fam) > 0


def test_family_orbit_matches_membership(k3, p3):
    fam = normalize_family([p3])
    orbit = family_orbit(fam, 3)
    for mask in range(8):
        H = RUniformGraph(n=3, r=2, edge_mask=mask)
        assert (mask in orbit) == naive_contains(H, [p3]) and True
    # P3 has three labelings, each with two edges.
    assert orbit == frozenset({0b011, 0b101, 0b110})


def test_one_relabelling_walk_per_member(monkeypatch):
    # Normalising walks each member's n! relabelings; the scan then reuses
    # that orbit, so each member costs exactly one walk.
    import itertools

    from hlab.hypergraph import _orbit_masks
    walks = []
    real = itertools.permutations
    monkeypatch.setattr(itertools, "permutations",
                        lambda *a: walks.append(a) or real(*a))
    for cached in (_orbit_masks, family_orbit, family_orbit_lookup):
        cached.cache_clear()
    fam = normalize_family([path(5), C4])
    masks = np.arange(1 << 10, dtype=np.uint64)
    assert batch_contains(masks, 5, 2, fam).any()
    assert _orbit_masks.cache_info().misses == 2
    assert len(walks) == 2


def test_family_orbit_lookup_agrees(k3, c4):
    fam = normalize_family([k3, c4])
    for h in (3, 4):
        lookup = family_orbit_lookup(fam, h)
        orbit = family_orbit(fam, h)
        assert lookup.shape == (1 << comb(h, 2),)
        for mask in range(lookup.shape[0]):
            assert lookup[mask] == (mask in orbit)


@given(st.integers(2, 5), st.data())
def test_batch_matches_scalar(n, data):
    fam = normalize_family([K3, P3])
    nbits = comb(n, 2)
    masks = np.array(
        data.draw(st.lists(st.integers(0, (1 << nbits) - 1),
                           min_size=1, max_size=12)),
        dtype=np.uint64)
    hit = batch_contains(masks, n, 2, fam)
    for mask, flag in zip(masks.tolist(), hit.tolist()):
        G = RUniformGraph(n=n, r=2, edge_mask=int(mask))
        assert flag == (count_induced(G, fam) > 0)


@given(st.data())
def test_batch_within_is_induced_restriction(data):
    fam = normalize_family([K3])
    n = data.draw(st.integers(3, 6))
    size = data.draw(st.integers(3, n))
    within = tuple(sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=size, max_size=size))))
    masks = np.array(
        data.draw(st.lists(st.integers(0, (1 << comb(n, 2)) - 1),
                           min_size=1, max_size=8)),
        dtype=np.uint64)
    hit = _rule(EdgePredicate.contains(fam, within), n, 2)(masks)
    for mask, flag in zip(masks.tolist(), hit.tolist()):
        G = RUniformGraph(n=n, r=2, edge_mask=int(mask))
        assert flag == (count_induced(induced_subgraph(G, within), fam) > 0)


@given(st.data())
def test_contains_columns_shared_subsets(data):
    fam = normalize_family([K3, C4])
    n = data.draw(st.integers(4, 6))
    vsets = data.draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=2, max_size=n).map(tuple),
        min_size=1, max_size=6))
    masks = np.array(
        data.draw(st.lists(st.integers(0, (1 << comb(n, 2)) - 1),
                           min_size=1, max_size=8)),
        dtype=np.uint64)
    cols = _contains_rows(n, 2, fam, vsets)(masks)
    assert cols.shape == (len(vsets), len(masks))
    for k, mask in enumerate(masks.tolist()):
        G = RUniformGraph(n=n, r=2, edge_mask=int(mask))
        for i, vset in enumerate(vsets):
            expect = naive_contains(induced_subgraph(G, vset), fam.members)
            assert cols[i, k] == expect


# Labelled orbits: K3 1, C4 3, P4 12, P5 60, K4^(3) 1.  Small ones take the
# masked compare, P5 always the gather, P4 the gather up to n=7 and the
# compare at n=11 (five 11-bit slices).  n=4..5 masks fit one slice, n=6..7
# two, n=11 (bits up to 54, the range mc samples) five.
@pytest.mark.parametrize("members, r, ns, max_size", [
    ([K3], 2, (4, 7, 11), 7),
    ([C4], 2, (4, 7, 11), 7),
    ([path(4)], 2, (4, 7, 11), 6),
    ([path(5)], 2, (5, 7, 11), 6),
    ([K3, path(5)], 2, (5, 6, 11), 6),
    ([complete_graph(4, 3)], 3, (5, 6, 7), 6),
], ids=["K3", "C4", "P4", "P5", "K3+P5", "K4_3"])
@given(data=st.data())
def test_row_kernels_match_oracle(members, r, ns, max_size, data):
    fam = normalize_family(members)
    n = data.draw(st.sampled_from(ns))
    vsets = data.draw(st.lists(
        st.sets(st.integers(0, n - 1), max_size=min(n, max_size)).map(tuple),
        min_size=1, max_size=4))
    masks = np.array(
        data.draw(st.lists(st.integers(0, (1 << comb(n, r)) - 1),
                           min_size=1, max_size=4)),
        dtype=np.uint64)
    through = data.draw(st.integers(0, n - 1))
    cols = _contains_rows(n, r, fam, vsets)(masks)
    cols_through = _contains_rows(n, r, fam, vsets, through)(masks)
    for k, mask in enumerate(masks.tolist()):
        G = RUniformGraph(n=n, r=r, edge_mask=int(mask))
        for i, vset in enumerate(vsets):
            expect = (len(vset) >= r and
                      naive_contains(induced_subgraph(G, vset), fam.members))
            assert cols[i, k] == expect
            assert cols_through[i, k] == naive_contains(
                G, fam.members, within=vset, through=through)
    # Both row kernels agree on every row, whichever one the selection runs.
    for h in fam.orders():
        every = list(range(comb(n, h)))
        compare = _compare_kernel(n, h, r, family_orbit(fam, h), every)(masks)
        gather = _gather_kernel(n, h, r, family_orbit_lookup(fam, h), every)(masks)
        for a, b in zip(compare, gather, strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("members", [[C4], [path(5)]], ids=["compare", "gather"])
def test_contains_columns_across_blocks(members):
    # More masks than one kernel block: the whole call equals calls on
    # pieces that each fit in one block (checked against the oracle above).
    fam = normalize_family(members)
    masks = np.random.default_rng(7).integers(
        0, 1 << comb(7, 2), (1 << 16) + 999, dtype=np.uint64)
    vsets = [range(7), (0, 1, 2, 3, 4), (2, 3, 4, 5, 6)]
    whole = _contains_rows(7, 2, fam, vsets)(masks)
    step = 5000
    for lo in range(0, masks.shape[0], step):
        piece = _contains_rows(7, 2, fam, vsets)(masks[lo:lo + step])
        assert np.array_equal(whole[:, lo:lo + step], piece)


@pytest.mark.parametrize("members, kernel", [
    ([K3], "_compare_kernel"), ([C4], "_compare_kernel"),
    ([path(5)], "_gather_kernel")], ids=["K3", "C4", "P5"])
def test_contains_columns_equal_in_both_lanes(monkeypatch, members, kernel):
    # A full scan hands the kernel uint32 masks and mc uint64 ones: the
    # same masks give the same columns in either dtype, on each kernel.
    import hlab.family as family_module

    built = []
    for name in ("_compare_kernel", "_gather_kernel"):
        def spy(*args, _real=getattr(family_module, name), _name=name):
            built.append(_name)
            return _real(*args)
        monkeypatch.setattr(family_module, name, spy)
    fam = normalize_family(members)
    masks = np.random.default_rng(3).integers(
        0, 1 << comb(7, 2), (1 << 16) + 999, dtype=np.uint64)
    vsets = [range(7), (0, 2, 3, 5, 6), (1, 2, 3, 4, 6)]
    rows = _contains_rows(7, 2, fam, vsets)
    wide = rows(masks)
    assert np.array_equal(rows(masks.astype(np.uint32)), wide)
    assert built == [kernel]
    assert wide.any() and not wide.all()


# A sparse 7-vertex 3-graph with an orbit of 2,520: its lookup is too wide,
# so its rows always run the masked compare.
SPARSE7_3 = graph_from_edges(7, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 4),
                                    (1, 3, 5), (2, 5, 6), (3, 4, 6)])


@st.composite
def random_families(draw):
    """r in 1..3 and one or two random members of orders r .. r+3 (r+2 at
    r = 3, so an orbit takes at most 5! relabelings)."""
    r = draw(st.sampled_from([1, 2, 3]))
    members = []
    for _ in range(draw(st.integers(1, 2))):
        h = draw(st.integers(r, r + (2 if r == 3 else 3)))
        members.append(RUniformGraph(
            h, r, draw(st.integers(0, (1 << comb(h, r)) - 1))))
    return normalize_family(members), r


def _unpack(packed, width):
    """The 2^width bits of choice sets packed by _pack_choices."""
    return np.unpackbits(packed.view(np.uint8), axis=-1, count=1 << width,
                         bitorder="little").view(bool)


def _check_parent_block(fam, r, k, vsets, cap, data, max_parents=4):
    """A parent's choice sets equal the 1-D through rule on every child,
    with the choice bits at `width` and up set in the parents."""
    lo, w = comb(k - 1, r), comb(k - 1, r - 1)
    width = data.draw(st.integers(0, w))
    parents = np.array(data.draw(st.lists(
        st.integers(0, (1 << (lo + w)) - 1),
        min_size=1, max_size=max_parents)), dtype=np.uint64)
    parents &= ~np.uint64(((1 << width) - 1) << lo)  # the open bits
    choices = np.arange(1 << width, dtype=np.uint64) << np.uint64(lo)
    children = (parents[:, None] | choices).ravel()
    cols = _contains_rows(k, r, fam, vsets, through=k - 1)(parents, width)
    flat = _contains_rows(k, r, fam, vsets, through=k - 1)(children)
    assert cols.shape[:2] == (len(vsets), len(parents))
    assert np.array_equal(_unpack(cols, width).reshape(flat.shape), flat)
    forb = EdgePredicate.forb(fam)
    for pred in (forb, EdgePredicate.intersection(
            [forb, EdgePredicate.max_edges(cap)])):
        keep = _rule(pred, k, r, through=k - 1)
        assert np.array_equal(_unpack(keep(parents, width), width).ravel(),
                              keep(children))


@given(random_families(), st.data())
def test_parent_blocks_match_the_sampled_rule(case, data):
    # Orders below, at and above k, in spaces of r = 1, 2 and 3; scopes
    # with and without the new vertex.
    fam, r = case
    orders = fam.orders()
    k = data.draw(st.integers(max(1, orders[0] - 1), orders[-1] + 1))
    vsets = [range(k)] + data.draw(st.lists(
        st.sets(st.integers(0, k - 1)).map(tuple), max_size=2))
    cap = data.draw(st.integers(-1, comb(k, r)))
    _check_parent_block(fam, r, k, vsets, cap, data)


# K3 and C4 take the masked compare at every n, P5 the gather up to n = 7
# (also inside K3+P5).
@pytest.mark.parametrize("members, r, ks", [
    ([K3], 2, (3, 5, 7)),
    ([C4], 2, (3, 5, 7)),
    ([path(5)], 2, (4, 5, 7)),
    ([K3, path(5)], 2, (4, 6, 7)),
    ([complete_graph(4, 3)], 3, (3, 4, 6)),
], ids=["K3", "C4", "P5", "K3+P5", "K4_3"])
@given(data=st.data())
def test_parent_blocks_match_the_sampled_rule_by_kernel(members, r, ks, data):
    fam = normalize_family(members)
    k = data.draw(st.sampled_from(ks))
    cap = data.draw(st.integers(0, comb(k, r)))
    _check_parent_block(fam, r, k, [range(k)], cap, data)


@settings(max_examples=4)
@given(data=st.data())
def test_parent_blocks_match_the_sampled_rule_sparse7_3(data):
    # The compare of a 2,520-member orbit on one parent's (up to) 2^15
    # children, about 0.5 s an example on the 1-D side.
    fam = normalize_family([SPARSE7_3])
    cap = data.draw(st.integers(0, comb(7, 3)))
    _check_parent_block(fam, 3, 7, [range(7)], cap, data, max_parents=1)


def test_parent_block_needs_the_top_vertex():
    fam = normalize_family([K3])
    parents = np.zeros(2, dtype=np.uint64)
    with pytest.raises(ParameterError, match="extends vertex 4"):
        _contains_rows(5, 2, fam, [range(5)], through=3)(parents, 4)


def test_batch_contains_r3():
    tri = complete_graph(3, 3)
    fam = normalize_family([tri])
    n = 5
    rng = Rng(seed=11)
    masks = np.array(
        [random_graph(n, 3, Fraction(1, 2), rng).edge_mask for _ in range(20)],
        dtype=np.uint64)
    hit = batch_contains(masks, n, 3, fam)
    for mask, flag in zip(masks.tolist(), hit.tolist()):
        G = RUniformGraph(n=n, r=3, edge_mask=int(mask))
        assert flag == (count_induced(G, fam) > 0)


def test_lookup_table_size_limit(monkeypatch):
    # A 7-vertex 3-graph with a 5040-member orbit: its lookup would need
    # 2^C(7,3) = 2^35 booleans (32 GB), and its orbit is too large for the
    # masked compare, so it is refused before anything is built.
    seven = RUniformGraph(n=7, r=3, edge_mask=0x123456789)
    fam = normalize_family([seven])
    assert len(family_orbit(fam, 7)) == 5040 > _COMPARE_MAX_ORBIT
    real = np.zeros

    def guarded(shape, *args, **kwargs):
        assert np.prod(shape) <= 1 << 28, f"allocation of {shape}"
        return real(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", guarded)
    masks = np.arange(5, dtype=np.uint64) * np.uint64(0x0123456789ABCD)
    with pytest.raises(SizeLimitError, match="2\\^35"):
        batch_contains(masks, 8, 3, fam)


def test_count_induced_size_limit(monkeypatch):
    # An 8-vertex member in a 30-vertex graph: C(30, 8) = 5,852,925
    # subsets, past 2^22, so the count is refused before the walk.  With
    # a 3-vertex member too the sum counts both orders.
    import hlab.family as family_module

    path8 = graph_from_edges(8, 2, [(i, i + 1) for i in range(7)])
    G = RUniformGraph(n=30, r=2, edge_mask=0)
    monkeypatch.setattr(family_module, "_induced_mask", None)
    with pytest.raises(SizeLimitError, match=r"over 5852925 vertex subsets "
                                             r"exceeds the limit 2\^22"):
        count_induced(G, normalize_family([path8]))
    with pytest.raises(SizeLimitError, match="over 5856985 vertex"):
        count_induced(G, normalize_family([path8, complete_graph(3, 2)]))


def test_members_of_order(k3, c4):
    fam = normalize_family([k3, c4])
    assert fam.members_of_order(3) == (fam.members[0],)
    assert fam.members_of_order(5) == ()

import json
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hlab.errors import (ConstructionError, FeasibilityError, HlabError,
                         ParameterError, ParseError, SizeLimitError)
from hlab.family import normalize_family
from hlab.hypergraph import (RUniformGraph, complete_graph, graph_from_edges,
                             permute_graph)
from hlab.measure import (_SLICE_MASKS, HARD_EXACT_CAP_BITS, EdgePredicate,
                          _check_ceiling, _children, _edge_order,
                          _edge_window, _histograms, _levels, _rule,
                          _vertex_cells, check_exact_feasible,
                          clopper_pearson, cn_from_measure, cn_sequence,
                          exact_measure, fraction_str, log2_fraction,
                          mc_measure, predicate_from_json_obj,
                          predicate_to_json_obj, weight_powers)

from oracles import (clopper_pearson_bisect, full_scan_histogram,
                     log2_oracle, naive_contains, naive_level_histograms, naive_measure,
                     naive_satisfies, oracle_masks, random_graph,
                     sample_masks, triangle_free_measure, vertex_levels)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
K3 = complete_graph(3, 2)
P3 = graph_from_edges(3, 2, [(0, 1), (1, 2)])
C4 = graph_from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
P4 = graph_from_edges(4, 2, [(0, 1), (1, 2), (2, 3)])
P5 = graph_from_edges(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)])
K4_3 = complete_graph(4, 3)
FORB_K3 = EdgePredicate.forb(normalize_family([K3]))


FAMILIES = [normalize_family([K3]), normalize_family([P3]),
            normalize_family([K3, C4])]


@st.composite
def predicates(draw, n, depth=2):
    """Predicates on the (n, 2) space; explicit masks lie in its layout."""
    nbits = comb(n, 2)
    kinds = ["min_edges", "max_edges", "explicit", "forb", "contains"]
    kind = draw(st.sampled_from(
        kinds + ["complement", "intersection"] if depth else kinds))
    if kind == "min_edges":
        return EdgePredicate.min_edges(draw(st.integers(0, nbits)))
    if kind == "max_edges":
        return EdgePredicate.max_edges(draw(st.integers(0, nbits)))
    if kind == "explicit":
        masks = draw(st.sets(st.integers(0, (1 << nbits) - 1), max_size=8))
        return EdgePredicate.explicit(masks)
    if kind == "forb":
        return EdgePredicate.forb(draw(st.sampled_from(FAMILIES)))
    if kind == "contains":
        # n - 1 vertices leave one out, so the restriction shows.
        within = draw(st.none()
                      | st.sets(st.integers(0, n - 1), min_size=n - 1))
        return EdgePredicate.contains(draw(st.sampled_from(FAMILIES)),
                                      within=within)
    if kind == "complement":
        return EdgePredicate.complement(draw(predicates(n, depth - 1)))
    return EdgePredicate.intersection(
        draw(st.lists(predicates(n, depth - 1), max_size=3)))


# (n, predicate) pairs with n in 2..4, so explicit masks fit C(n, 2) bits.
SPACES = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), predicates(n)))


def test_triangle_free_examples():
    assert exact_measure(3, 2, HALF, FORB_K3).value == Fraction(7, 8)
    assert exact_measure(4, 2, HALF, FORB_K3).value == Fraction(41, 64)
    # 133501 labelled triangle-free graphs on 7 vertices (OEIS A006785),
    # counted over 2^21 masks: many kernel blocks and two scan chunks.
    assert exact_measure(7, 2, HALF, FORB_K3).value == Fraction(133501, 1 << 21)


def test_triangle_free_oracle_inclusion_exclusion():
    for n in (3, 4, 5):
        for p in (HALF, THIRD):
            got = exact_measure(n, 2, p, FORB_K3).value
            assert got == triangle_free_measure(n, p)


def test_vacuous_predicate():
    assert exact_measure(5, 2, THIRD, EdgePredicate.min_edges(0)).value == 1
    assert exact_measure(4, 3, HALF, EdgePredicate.min_edges(0)).value == 1


def test_exact_measure_is_rational_with_log():
    res = exact_measure(4, 2, THIRD, FORB_K3)
    assert isinstance(res.value, Fraction)
    assert res.method == "exact"
    assert res.ci_low is None and res.ci_high is None
    assert abs(float(res.log2_value) - float(np.log2(float(res.value)))) < 1e-9


@given(SPACES, st.sampled_from([HALF, THIRD]))
def test_exact_matches_naive(space, p):
    n, pred = space
    obj = predicate_to_json_obj(pred)
    got = exact_measure(n, 2, p, pred).value
    assert got == naive_measure(n, 2, p, lambda G: naive_satisfies(obj, G))


@given(predicates(5))
def test_complement_partition_of_unity(pred):
    comp = EdgePredicate.complement(pred)
    a = exact_measure(5, 2, THIRD, pred).value
    b = exact_measure(5, 2, THIRD, comp).value
    assert a + b == 1


def test_monotone_under_implication():
    fam_pair = normalize_family([K3, P3])
    stronger = EdgePredicate.forb(fam_pair)
    weaker = FORB_K3
    for p in (HALF, THIRD):
        assert (exact_measure(5, 2, p, stronger).value
                <= exact_measure(5, 2, p, weaker).value)
    for k in range(10):
        assert (exact_measure(5, 2, THIRD, EdgePredicate.min_edges(k + 1)).value
                <= exact_measure(5, 2, THIRD, EdgePredicate.min_edges(k)).value)


def satisfying_count(n, r, pred):
    """Satisfying masks by one batch over the whole space, the route apart
    from exact_measure's edge histogram: the p=1/2 numerator."""
    masks = np.arange(1 << comb(n, r), dtype=np.uint64)
    return int(_rule(pred, n, r)(masks).sum())


def test_half_probability_counts_masks():
    for n in (3, 4, 5):
        cnt = satisfying_count(n, 2, FORB_K3)
        assert exact_measure(n, 2, HALF, FORB_K3).value == Fraction(
            cnt, 1 << comb(n, 2))
    assert satisfying_count(3, 2, FORB_K3) == 7


def test_worker_independence_exact():
    for workers in (1, 2, 4, 8):
        res = exact_measure(5, 2, THIRD, FORB_K3, workers=workers)
        assert res.value == exact_measure(5, 2, THIRD, FORB_K3).value


def test_min_edges_binomial_identity():
    # mu(min_edges(k)) at p is the binomial tail, an independent formula.
    n, k = 4, 3
    nbits = comb(n, 2)
    expect = sum(comb(nbits, e) * THIRD ** e * (1 - THIRD) ** (nbits - e)
                 for e in range(k, nbits + 1))
    got = exact_measure(n, 2, THIRD, EdgePredicate.min_edges(k)).value
    assert got == expect


def test_feasibility_cap():
    with pytest.raises(FeasibilityError, match="mc_measure"):
        exact_measure(9, 2, HALF, FORB_K3, cap_bits=20)
    with pytest.raises(ParameterError):
        exact_measure(3, 2, HALF, FORB_K3, cap_bits=HARD_EXACT_CAP_BITS + 1)
    with pytest.raises(ParameterError) as exc:
        check_exact_feasible(4, 2, -1)
    assert str(exc.value) == "exact cap must be >= 0, got -1"
    assert check_exact_feasible(0, 2, 0) == 0


def test_feasibility_names_only_a_working_fallback():
    # C(11,2) = 55 bits fits one sampled uint64; C(12,2) = 66 does not.
    with pytest.raises(FeasibilityError, match="mc_measure"):
        check_exact_feasible(11, 2)
    with pytest.raises(FeasibilityError) as exc:
        check_exact_feasible(12, 2)
    assert "mc_measure" not in str(exc.value)
    assert "no sampled fallback" in str(exc.value)
    with pytest.raises(FeasibilityError, match="63 bits"):
        mc_measure(12, 2, HALF, FORB_K3, samples=10, seed=0)


def test_feasibility_without_a_sampled_route():
    # A scan that mc_measure cannot stand in for names a larger cap while
    # one fits the hard cap, and no fallback past it.
    with pytest.raises(FeasibilityError) as exc:
        check_exact_feasible(8, 2, sampled=False)
    assert str(exc.value) == ("mask space 2^28 for (n=8, r=2) exceeds the "
                              "exact cap 2^24; raise --cap to 28")
    with pytest.raises(FeasibilityError) as exc:
        check_exact_feasible(9, 2, 30, sampled=False)
    assert str(exc.value) == ("mask space 2^36 for (n=9, r=2) exceeds the "
                              "exact cap 2^30; no fallback exists above the "
                              "hard cap 2^30")


def test_invalid_probability():
    with pytest.raises(ParameterError):
        exact_measure(3, 2, Fraction(3, 2), FORB_K3)
    with pytest.raises(ParameterError):
        mc_measure(3, 2, Fraction(-1, 2), FORB_K3, samples=10, seed=0)


def test_cn_examples():
    assert cn_from_measure(2, 2, Fraction(1)) == 0
    # log2 of 1/mu, so c_n of mu = 1 prints as 0, not -0
    assert not cn_from_measure(2, 2, Fraction(1)).is_signed()
    c3 = cn_from_measure(3, 2, Fraction(7, 8))
    assert abs(c3 - (3 - log2_oracle(7)) / 3) < Decimal(2) ** -50
    c4 = cn_from_measure(4, 2, Fraction(41, 64))
    assert abs(c4 - (6 - log2_oracle(41)) / 6) < Decimal(2) ** -50


def test_cn_sequence_structure():
    pts = cn_sequence(normalize_family([K3]), HALF, range(2, 6))
    assert [pt.n for pt in pts] == [2, 3, 4, 5]
    for pt in pts:
        assert pt.c_n >= 0
        assert abs(pt.c_n - cn_from_measure(pt.n, 2, pt.mu)) == 0


def test_cn_nondecreasing_families():
    slack = Decimal(2) ** -40
    for g in (K3, C4, P3):
        pts = cn_sequence(normalize_family([g]), HALF, range(2, 8))
        for a, b in zip(pts, pts[1:]):
            assert a.c_n <= b.c_n + slack


def test_ceiling_check_catches_an_overcount(monkeypatch):
    # Doubling Forb(K3)'s level-7 histogram gives mu_7 = 133501/2^20,
    # about 0.127, above its ceiling mu_6^(7/5) = (5789/2^15)^1.4, about
    # 0.088.  n = 6 stops short of the doubled level.
    import hlab.measure as measure
    real = measure._histograms

    def doubled(levels, workers):
        hists = real(levels, workers)
        if len(hists) > 7:
            hists[7] = [2 * c for c in hists[7]]
        return hists

    monkeypatch.setattr(measure, "_histograms", doubled)
    assert exact_measure(6, 2, HALF, FORB_K3).value == Fraction(5789, 1 << 15)
    with pytest.raises(ConstructionError, match="mu_7 exceeds its ceiling"):
        exact_measure(7, 2, HALF, FORB_K3)
    with pytest.raises(ConstructionError, match="mu_7 exceeds its ceiling"):
        cn_sequence(normalize_family([K3]), HALF, [7])
    assert 2 * 133501 / 2 ** 21 > 0.127
    assert 0.088 < (5789 / 2 ** 15) ** 1.4 < 0.089


def test_ceiling_check_is_tight_and_skips_huge_powers():
    # Every graph on up to 3 vertices: mu_k = 1 on every level meets the
    # ceiling with equality.  One graph too many on 3 vertices breaks it;
    # at p = 10^-7000, S_2^3 and S_3 have about 70,000 bits, past
    # MAX_RESULT_BITS, so the same pair is skipped.
    assert exact_measure(4, 2, Fraction(1), _forb(P5)).value == 1
    hists = [[1], [1], [1, 1], [1, 3, 3, 1]]
    _check_ceiling(hists, HALF, 2)
    _check_ceiling(hists, Fraction(1, 10 ** 250), 2)
    over = hists[:3] + [[1, 3, 3, 2]]
    with pytest.raises(ConstructionError, match="mu_3 exceeds"):
        _check_ceiling(over, HALF, 2)
    with pytest.raises(ConstructionError, match="mu_3 exceeds"):
        _check_ceiling(over, Fraction(1, 10 ** 250), 2)
    _check_ceiling(over, Fraction(1, 10 ** 7000), 2)


def test_cn_refuses_sampled_range():
    with pytest.raises(FeasibilityError):
        cn_sequence(normalize_family([K3]), HALF, [10], cap_bits=20)


def test_cn_zero_measure_rejected():
    with pytest.raises(ParameterError):
        cn_from_measure(3, 2, Fraction(0))


def test_log2_fraction_precision():
    x = Fraction(41, 64)
    assert abs(log2_fraction(x) - log2_oracle(x)) < Decimal(2) ** -60
    assert log2_fraction(Fraction(0)) == Decimal("-Infinity")


@given(st.integers(1, 60), st.integers(0, 40), st.data())
def test_log2_fraction_near_one(k, extra, data):
    # x = a/b within 10^-k of 1: the value rests on the exact a - b, so
    # all of its 30 digits hold however many leading digits a and b share.
    b = data.draw(st.integers(10 ** k, 10 ** (k + extra + 1)))
    a = b + data.draw(st.integers(-((b - 1) // 10 ** k), (b - 1) // 10 ** k))
    got, expect = log2_fraction(Fraction(a, b)), log2_oracle(Fraction(a, b))
    if a == b:
        assert got == 0 and not got.is_signed()
    else:
        assert abs((got - expect) / expect) < Decimal(2) ** -90


def test_log2_fraction_of_a_huge_denominator():
    # 1/10^129000 (p = 10^-4300 over C(n,r) = 30 edges): the quotient comes
    # from an integer division, not from a 129,000-digit Decimal.
    x = Fraction(1, 10 ** 129000)
    assert abs(log2_fraction(x) + 129000 * log2_oracle(10)) < Decimal(2) ** -60


def test_mc_determinism():
    a = mc_measure(5, 2, HALF, FORB_K3, samples=2000, seed=42)
    b = mc_measure(5, 2, HALF, FORB_K3, samples=2000, seed=42)
    assert (a.value, a.hits, a.ci_low, a.ci_high) == (
        b.value, b.hits, b.ci_low, b.ci_high)
    c = mc_measure(5, 2, HALF, FORB_K3, samples=2000, seed=43)
    assert a.hits != c.hits


def test_mc_worker_independence():
    lo = mc_measure(6, 2, HALF, FORB_K3, samples=200_000, seed=7, workers=1)
    hi = mc_measure(6, 2, HALF, FORB_K3, samples=200_000, seed=7, workers=4)
    assert lo.hits == hi.hits


def test_mc_always_true():
    res = mc_measure(4, 2, HALF, EdgePredicate.min_edges(0),
                     samples=500, seed=1)
    assert res.value == 1.0
    assert res.ci_high == 1.0
    assert res.ci_low < 1.0


def test_mc_ci_contains_estimate_and_exact():
    exact = float(exact_measure(5, 2, HALF, FORB_K3).value)
    hits_inside = 0
    for seed in range(20):
        res = mc_measure(5, 2, HALF, FORB_K3, samples=4000, seed=seed,
                         ci_level=0.95)
        assert res.ci_low <= res.value <= res.ci_high
        if res.ci_low <= exact <= res.ci_high:
            hits_inside += 1
    assert hits_inside >= 17


def _grid(samples_list):
    for samples in samples_list:
        for hits in sorted({0, 1, 2, samples // 3, samples // 2, samples - 2,
                            samples - 1, samples}):
            if 0 <= hits <= samples:
                for level in (0.9, 0.95, 0.99):
                    yield hits, samples, level


CP_SAMPLES = [1, 2, 3, 5, 10, 99, 1000, 4000, 65_537, 10**5, 10**6,
              12_345_678, 10**7, 10**8]


def test_clopper_pearson_bitwise_matches_beta_ppf():
    # The bounds used to come from scipy.stats.beta.ppf; the inverse
    # regularized incomplete beta must give the very same floats.
    from scipy.stats import beta

    for hits, samples, level in _grid(CP_SAMPLES):
        alpha = 1.0 - level
        lo = 0.0 if hits == 0 else float(
            beta.ppf(alpha / 2, hits, samples - hits + 1))
        hi = 1.0 if hits == samples else float(
            beta.ppf(1 - alpha / 2, hits + 1, samples - hits))
        got = clopper_pearson(hits, samples, level)
        assert [x.hex() for x in got] == [lo.hex(), hi.hex()], (
            hits, samples, level)


def test_clopper_pearson_matches_bisection_oracle():
    for hits, samples, level in _grid([1, 2, 3, 7, 40, 500]):
        got = clopper_pearson(hits, samples, level)
        want = clopper_pearson_bisect(hits, samples, level)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=0), (
                hits, samples, level)


def test_mc_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        mc_measure(4, 2, HALF, FORB_K3, samples=0, seed=0)
    with pytest.raises(ParameterError):
        mc_measure(4, 2, HALF, FORB_K3, samples=10, seed=0, ci_level=1.5)
    with pytest.raises(ParameterError, match=r"samples must be <= 4294967296"):
        mc_measure(4, 2, HALF, FORB_K3, samples=(1 << 32) + 1, seed=0)


def test_sample_masks_matches_scalar_rng():
    from hlab.rng import Rng

    masks = sample_masks(4, 2, THIRD, seed=9, count=6, first_stream=3)
    for i, m in enumerate(masks.tolist()):
        g = random_graph(4, 2, THIRD, Rng(seed=9, stream=3 + i))
        assert int(m) == g.edge_mask


def test_sample_masks_extreme_p():
    assert set(sample_masks(4, 2, Fraction(1), seed=0, count=5).tolist()) == {
        (1 << comb(4, 2)) - 1}
    assert set(sample_masks(4, 2, Fraction(0), seed=0, count=5).tolist()) == {0}


@pytest.mark.parametrize("n,r", [(11, 2), (8, 3)])
@pytest.mark.parametrize("p", [Fraction(0), THIRD, HALF, Fraction(1)])
@pytest.mark.parametrize("count", [1, (1 << 16) + 3])
def test_sample_masks_bitwise_oracles(n, r, p, count):
    from hlab.rng import Rng

    first = 70_001
    masks = sample_masks(n, r, p, seed=5, count=count, first_stream=first)
    assert masks.dtype == np.uint64
    assert masks.tolist() == oracle_masks(n, r, p, 5, count, first).tolist()
    for i in sorted({0, count // 2, count - 1, min(1 << 16, count - 1)}):
        g = random_graph(n, r, p, Rng(seed=5, stream=first + i))
        assert int(masks[i]) == g.edge_mask


def _forb(*members):
    return EdgePredicate.forb(normalize_family(members))


# The forb cases are sampled vertex by vertex; at p = 1/2 only about
# 0.007% of the samples are still triangle-free at n = 11.
@pytest.mark.parametrize("p,pred", [(Fraction(1, 8), FORB_K3),
                                    (HALF, EdgePredicate.max_edges(27)),
                                    (HALF, FORB_K3), (THIRD, _forb(P5))])
def test_mc_hits_past_one_chunk(p, pred):
    samples = (1 << 16) + 3
    runs = [mc_measure(11, 2, p, pred, samples=samples, seed=4, workers=w)
            for w in (1, 2, 0)]
    want = int(_rule(pred, 11, 2)(oracle_masks(11, 2, p, 4, samples, 0)).sum())
    assert 0 < want < samples
    assert [res.hits for res in runs] == [want] * 3
    assert runs[0] == runs[1] == runs[2]


def test_mc_partial_last_chunk_same_at_one_and_two_workers(monkeypatch):
    # Three full chunks and a partial one: each worker keeps one workspace
    # for the whole call, so the partial chunk runs on slices of buffers
    # that earlier chunks filled.
    import hlab.measure as measure
    built = []
    real = measure._Workspace

    def counting(size):
        built.append(size)
        return real(size)

    monkeypatch.setattr(measure, "_Workspace", counting)
    samples, p = 3 * (1 << 16) + 4321, Fraction(1, 8)
    runs = []
    for workers in (1, 2):
        built.clear()
        runs.append(mc_measure(11, 2, p, FORB_K3, samples=samples, seed=9,
                               workers=workers))
        assert 1 <= len(built) <= workers
        assert built == [1 << 16] * len(built)
    want = int(_rule(FORB_K3, 11, 2)(
        oracle_masks(11, 2, p, 9, samples, 0)).sum())
    assert 0 < want < samples
    assert [res.hits for res in runs] == [want, want]
    assert runs[0] == runs[1]


def test_mc_workspace_fits_a_small_call(monkeypatch):
    import hlab.measure as measure
    built = []
    real = measure._Workspace
    monkeypatch.setattr(measure, "_Workspace",
                        lambda size: built.append(size) or real(size))
    mc_measure(5, 2, HALF, FORB_K3, samples=100, seed=0)
    assert built == [100]


# Pooling at a small scale: chunks of 8 samples and a pool of 4 (a pool
# is at most half a chunk, so the pending rows fit), so that a few dozen
# samples fill the pending rows, fill them to the pool exactly, or one
# past it.  Forb(K3) at p = 1/2 has its first hit at sample 13,954 of
# seed 3.  (n, p, pred, {kind: samples})
POOLED_CASES = {
    "K3-half": (11, HALF, FORB_K3,
                {"end": 17, "exact": 13_955, "past": 13_955}),
    "K3-eighth": (11, Fraction(1, 8), FORB_K3,
                  {"end": 17, "exact": 186, "past": 187}),
    "P5-gather": (9, THIRD, _forb(P5), {"end": 5, "exact": 9, "past": 19}),
    "max-edges-and-C4": (10, Fraction(1, 4), EdgePredicate.intersection(
        [EdgePredicate.max_edges(12), _forb(C4)]),
        {"end": 17, "exact": 25, "past": 26}),
}


@pytest.mark.parametrize("n,p,pred,counts", POOLED_CASES.values(),
                         ids=list(POOLED_CASES))
def test_mc_pooled_levels_match_row_oracle(monkeypatch, n, p, pred, counts):
    # "end": parks that never reach the pool, so every pooled batch runs
    # in the drain after the last chunk; "exact" and "past": some level's
    # pending rows reach the pool exactly, or one sample past it, and run
    # as one batch.  Hits equal the oracle's at every worker count.
    import hlab.measure as measure
    monkeypatch.setattr(measure, "_BLOCK_MASKS", 8)
    monkeypatch.setattr(measure, "_POOL", 4)
    park, fills = measure._Workspace.park, []

    def spy(self, k, keys, masks, index=None):
        start = self.pending[k][1] if k in self.pending else 0
        fills.append(start + len(keys if index is None else index))
        return park(self, k, keys, masks, index)

    monkeypatch.setattr(measure._Workspace, "park", spy)
    keep = _rule(pred, n, 2)(oracle_masks(n, 2, p, 3, max(counts.values()), 0))
    for samples in sorted(set(counts.values())):
        fills.clear()
        runs = [mc_measure(n, 2, p, pred, samples=samples, seed=3)]
        for kind in (kind for kind, c in counts.items() if c == samples):
            if kind == "end":
                assert fills and max(fills) < 4
            else:
                assert {"exact": 4, "past": 5}[kind] in fills
        runs += [mc_measure(n, 2, p, pred, samples=samples, seed=3,
                            workers=w) for w in (0, 2)]
        assert [res.hits for res in runs] == [int(keep[:samples].sum())] * 3
        assert runs[0] == runs[1] == runs[2]


def test_mc_pooled_levels_under_many_threads(monkeypatch):
    # More worker threads than cores, switching often: each worker parks
    # samples in its own workspace, and every workspace must reach the
    # drain, or the samples it holds are lost.
    import sys
    import hlab.measure as measure
    monkeypatch.setattr(measure, "_BLOCK_MASKS", 8)
    monkeypatch.setattr(measure, "_POOL", 4)
    samples, p = 2000, Fraction(1, 8)
    want = int(_rule(FORB_K3, 11, 2)(
        oracle_masks(11, 2, p, 5, samples, 0)).sum())
    assert 0 < want < samples
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert mc_measure(11, 2, p, FORB_K3, samples=samples, seed=5,
                              workers=8).hits == want
    finally:
        sys.setswitchinterval(interval)


def test_mc_late_levels_run_in_few_batches(monkeypatch):
    # Levels 9, 10 and 11 of Forb(K3) at n = 11 see about 2%, 0.4% and
    # 0.06% of the samples: pooled, they run in a few full batches instead
    # of once per 2^16-sample chunk (16 times here), and no batch is
    # longer than the workspace.
    import hlab.measure as measure
    sizes = {}
    real = measure.bernoulli_columns

    def spy(keys, masks, lo, hi, threshold, scratch):
        sizes.setdefault(lo, []).append(keys.shape[0])
        return real(keys, masks, lo, hi, threshold, scratch)

    monkeypatch.setattr(measure, "bernoulli_columns", spy)
    mc_measure(11, 2, HALF, FORB_K3, samples=1 << 20, seed=1)
    batches = [len(sizes[comb(k - 1, 2)]) for k in (9, 10, 11)]
    assert all(b <= most for b, most in zip(batches, (4, 1, 1)))
    assert max(map(max, sizes.values())) <= 1 << 16


# A 7-vertex 3-graph with an orbit of 2520 labellings: its lookup table
# would need 2^35 entries, so every level runs the masked compare.
SPARSE7_3 = graph_from_edges(7, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 4),
                                    (1, 3, 5), (2, 5, 6), (3, 4, 6)])
# K5^(3) plus two isolated vertices, an orbit of 21: by cost the gather at
# n = 7 (4 slices), whose lookup is too wide, and the compare at n = 8 (6
# slices); every level runs the compare.
K5_3_PLUS_2 = graph_from_edges(7, 3, list(combinations(range(5), 3)))
# A 7-vertex 3-graph with an orbit of 5040: too large for the compare, so
# it is refused wherever a 7-vertex set is tested.
SEVEN = RUniformGraph(n=7, r=3, edge_mask=0x123456789)

# (n, r, p, pred, samples)
HEREDITARY_CASES = {
    "K3-n11": (11, 2, HALF, FORB_K3, 30_000),
    "P5-gather": (9, 2, THIRD, _forb(P5), 20_000),
    "K4^(3)-n8-r3": (8, 3, HALF, _forb(K4_3), 20_000),
    "max-edges-and-C4": (10, 2, Fraction(1, 4), EdgePredicate.intersection(
        [EdgePredicate.max_edges(12), _forb(C4)]), 20_000),
    "p0": (11, 2, Fraction(0), FORB_K3, 1000),
    "p1-dies": (11, 2, Fraction(1), FORB_K3, 1000),
    "p1-survives": (11, 2, Fraction(1), _forb(P5), 1000),
    "member-above-n": (4, 2, HALF, _forb(P5), 1000),
    "n-below-r": (2, 3, HALF, _forb(K4_3), 1000),
    "n0": (0, 2, HALF, FORB_K3, 1000),
    "lookup-only-below-n": (8, 3, HALF, _forb(K5_3_PLUS_2), 3000),
}


@pytest.mark.parametrize("n,r,p,pred,samples", HEREDITARY_CASES.values(),
                         ids=list(HEREDITARY_CASES))
def test_mc_hereditary_hits_match_row_oracle(n, r, p, pred, samples):
    want = int(_rule(pred, n, r)(oracle_masks(n, r, p, 3, samples, 0)).sum())
    res = mc_measure(n, r, p, pred, samples=samples, seed=3)
    assert res.hits == want
    assert res.value == want / samples


def test_mc_drops_a_lone_failing_sample():
    # A level that keeps all samples leaves them as they are; one that
    # keeps all but one must still drop that one, wherever it sits.
    lone = 0
    for seed in range(40):
        for samples in (2, 3):
            masks = oracle_masks(3, 2, HALF, seed, samples, 0)
            keep = _rule(FORB_K3, 3, 2)(masks)
            lone += int(keep[:-1].all() and not keep[-1])
            res = mc_measure(3, 2, HALF, FORB_K3, samples=samples, seed=seed)
            assert res.hits == int(keep.sum())
    assert lone > 0


def test_mc_draws_edges_only_for_samples_in_the_class(monkeypatch):
    import hlab.measure as measure
    drawn = []
    real = measure.bernoulli_columns

    def counting(keys, masks, lo, hi, threshold, scratch):
        # the scratch columns are views of the worker's workspace, one
        # per sample still drawn
        assert all(a.shape == keys.shape for a in scratch)
        drawn.append(keys.shape[0] * (hi - lo))
        return real(keys, masks, lo, hi, threshold, scratch)

    monkeypatch.setattr(measure, "bernoulli_columns", counting)
    samples, nbits = 20_000, comb(11, 2)
    mc_measure(11, 2, HALF, FORB_K3, samples=samples, seed=1)
    # mu_k(Forb K3) falls to 6.4% at k = 7: about 21% of the columns
    assert sum(drawn) < 0.25 * samples * nbits
    for pred in (EdgePredicate.contains(normalize_family([K3])),
                 EdgePredicate.min_edges(3)):
        drawn.clear()
        mc_measure(11, 2, HALF, pred, samples=samples, seed=1)
        assert sum(drawn) == samples * nbits


_OUTSIDE = EdgePredicate.explicit([3, 1 << 6])
_MISMATCH = _forb(K4_3)
_SAMPLE_BITS_66 = "vectorized sampling limited to C(n,r) <= 63 bits, got 66"
_LOOKUP_35 = ("orbit lookup table for the order-7 members needs 2^35 "
              "entries, above the limit 2^28")

# (n, r, p, pred, samples, ci_level) -> the one error mc_measure raises
MC_ERRORS = {
    "p-first": ((4, 2, Fraction(3, 2), FORB_K3, 0, 1.5),
                ParameterError, "edge probability 3/2 outside [0, 1]"),
    "samples-before-ci": ((12, 2, HALF, FORB_K3, 0, 1.5),
                          ParameterError, "samples must be >= 1"),
    "ci-before-bits": ((12, 2, HALF, FORB_K3, 10, 1.5),
                       ParameterError, "ci_level must be in (0, 1)"),
    "n-negative": ((-1, 2, HALF, FORB_K3, 10, 0.95),
                   ParameterError, "need n >= 0 and r >= 1, got n=-1, r=2"),
    "bits-before-uniformity": ((12, 2, HALF, _MISMATCH, 10, 0.95),
                               FeasibilityError, _SAMPLE_BITS_66),
    "bits-before-explicit": ((12, 2, HALF, _OUTSIDE, 10, 0.95),
                             FeasibilityError, _SAMPLE_BITS_66),
    "bits-before-lookup": ((9, 3, HALF, _forb(SEVEN), 10, 0.95),
                           FeasibilityError, "vectorized sampling limited "
                           "to C(n,r) <= 63 bits, got 84"),
    "uniformity": ((4, 2, HALF, _MISMATCH, 10, 0.95),
                   ParameterError, "uniformity mismatch: space r=2, family r=3"),
    "explicit": ((4, 2, HALF, _OUTSIDE, 10, 0.95), ParameterError,
                 "explicit mask 64 lies outside the C(4,2) = 6-bit layout"),
    "explicit-part-first": ((4, 2, HALF, EdgePredicate.intersection(
        [_OUTSIDE, _MISMATCH]), 10, 0.95), ParameterError,
        "explicit mask 64 lies outside the C(4,2) = 6-bit layout"),
    "uniformity-part-first": ((4, 2, HALF, EdgePredicate.intersection(
        [_MISMATCH, _OUTSIDE]), 10, 0.95), ParameterError,
        "uniformity mismatch: space r=2, family r=3"),
    "lookup": ((8, 3, HALF, _forb(SEVEN), 10, 0.95),
               SizeLimitError, _LOOKUP_35),
    "lookup-part-first": ((8, 3, HALF, EdgePredicate.intersection(
        [_forb(SEVEN), FORB_K3]), 10, 0.95), SizeLimitError, _LOOKUP_35),
}


@pytest.mark.parametrize("args,error,message", MC_ERRORS.values(),
                         ids=list(MC_ERRORS))
def test_mc_error_order_and_text(args, error, message):
    n, r, p, pred, samples, level = args
    with pytest.raises(error) as exc:
        mc_measure(n, r, p, pred, samples=samples, seed=0, ci_level=level)
    assert type(exc.value) is error
    assert str(exc.value) == message


def _degrees_and_codegrees(edges):
    """Sorted vertex degrees and pair codegrees of a 3-graph's edges: equal
    for isomorphic graphs."""
    deg = Counter(v for e in edges for v in e)
    codeg = Counter(q for e in edges for q in combinations(e, 2))
    return sorted(deg.values()), sorted(codeg.values())


def test_mc_orbit_above_the_lookup_matches_naive_oracle():
    # SPARSE7_3's lookup would need 2^35 entries, so every level runs the
    # compare.  At p = 1/6 a few samples induce it.  naive_contains decides
    # every 7-set whose degrees and codegrees match SPARSE7_3's; no other
    # 7-set can induce it.
    p, samples = Fraction(1, 6), 2000
    res = mc_measure(8, 3, p, _forb(SPARSE7_3), samples=samples, seed=3)
    want = _degrees_and_codegrees(SPARSE7_3.edges())
    left = 0
    for mask in oracle_masks(8, 3, p, 3, samples, 0).tolist():
        G = RUniformGraph(n=8, r=3, edge_mask=mask)
        sets = [tuple(u for u in range(8) if u != v) for v in range(8)
                if _degrees_and_codegrees(
                    [e for e in G.edges() if v not in e]) == want]
        left += any(naive_contains(G, [SPARSE7_3], within=d) for d in sets)
    assert 0 < left < samples
    assert res.hits == samples - left


RULE_FAMILIES = {"K3": [K3], "P3": [P3], "C4": [C4], "P4": [P4], "P5": [P5],
                 "K3+C4": [K3, C4], "K3+P5": [K3, P5], "K4_3": [K4_3],
                 "K3_3": [complete_graph(3, 3)], "SPARSE7_3": [SPARSE7_3],
                 "K5_3_PLUS_2": [K5_3_PLUS_2], "SEVEN": [SEVEN]}


def _build_error(build):
    """None when build() returns, else the type and text of its error."""
    try:
        build()
    except HlabError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", RULE_FAMILIES)
def test_level_rules_build_exactly_when_the_full_space_rule_does(name):
    # Whether a family order can be tested depends on the family alone, so
    # the vertex levels build exactly when the full-space rule does, and
    # otherwise raise its error, intersections in part order.
    forb = _forb(*RULE_FAMILIES[name])
    preds = [forb]
    for other in (FORB_K3, _forb(K4_3), _forb(SEVEN)):
        preds += [EdgePredicate.intersection([forb, other]),
                  EdgePredicate.intersection([other, forb])]
    built = set()
    for r, top in ((2, 9), (3, 8)):
        for n in range(top + 1):
            for pred in preds:
                full = _build_error(lambda: _rule(pred, n, r))
                assert _build_error(lambda: _levels(pred, n, r)) == full
                built.add(full is None)
    assert built == {True, False}


@given(SPACES)
def test_predicate_evaluate_matches_batch(space):
    n, pred = space
    obj = predicate_to_json_obj(pred)
    masks = np.arange(1 << comb(n, 2), dtype=np.uint64)
    flags = _rule(pred, n, 2)(masks)
    for mask, flag in zip(masks.tolist(), flags.tolist()):
        assert flag == naive_satisfies(obj, RUniformGraph(n, 2, mask))


@pytest.mark.parametrize("mask", [-1, 1 << 6, 9999, (1 << 64) - 1, 1 << 64])
def test_explicit_mask_outside_layout(mask):
    pred = EdgePredicate.explicit([3, mask])
    with pytest.raises(ParameterError, match="outside the C.4,2. = 6-bit"):
        exact_measure(4, 2, HALF, pred)
    with pytest.raises(ParameterError, match="outside"):
        mc_measure(4, 2, HALF, pred, samples=10, seed=0)
    inside = EdgePredicate.explicit([3, (1 << 6) - 1])
    assert exact_measure(4, 2, HALF, inside).value == Fraction(2, 64)


def test_explicit_mask_not_integer():
    with pytest.raises(TypeError):
        EdgePredicate.explicit([1.5])
    with pytest.raises(ParseError, match="bad predicate object"):
        predicate_from_json_obj({"kind": "explicit", "masks": [1.5]})


@pytest.mark.parametrize("obj", [
    {"kind": "min_edges", "k": 1.5},
    {"kind": "max_edges", "k": "2"},
    {"kind": "explicit", "masks": [True]},
    {"kind": "contains", "family": [{"n": 3, "r": 2, "edges": [[0, 1]]}],
     "within": [0.5, 1, 2]},
])
def test_predicate_operands_must_be_integers(obj):
    with pytest.raises(ParseError, match="bad predicate object"):
        predicate_from_json_obj(obj)


def test_contains_within_predicate():
    fam = normalize_family([K3])
    pred = EdgePredicate.contains(fam, within=(0, 1, 2, 3))
    full = EdgePredicate.contains(fam)
    n = 5
    masks = np.arange(1 << comb(n, 2), dtype=np.uint64)
    hit_within = _rule(pred, n, 2)(masks)
    hit_full = _rule(full, n, 2)(masks)
    assert hit_within.sum() < hit_full.sum()
    assert not (hit_within & ~hit_full).any()


@given(SPACES)
def test_predicate_json_round_trip(space):
    n, pred = space
    obj = predicate_to_json_obj(pred)
    json.dumps(obj)
    back = predicate_from_json_obj(obj)
    masks = np.arange(1 << comb(n, 2), dtype=np.uint64)
    assert (_rule(pred, n, 2)(masks) == _rule(back, n, 2)(masks)).all()


def test_forb_predicate_json_round_trip():
    fam = normalize_family([K3, C4])
    for pred in (EdgePredicate.forb(fam),
                 EdgePredicate.contains(fam, within=(1, 2, 4))):
        back = predicate_from_json_obj(predicate_to_json_obj(pred))
        masks = np.arange(1 << comb(5, 2), dtype=np.uint64)
        assert (_rule(pred, 5, 2)(masks) == _rule(back, 5, 2)(masks)).all()


def test_fraction_str():
    assert fraction_str(Fraction(7, 8)) == "7/8"
    assert fraction_str(Fraction(3)) == "3/1"


# Orbits K3 1, C4 3, P4 12, P5 60, K4^(3) 1: both row kernels run on the
# rows through the new vertex, and K4^(3) takes the r = 3 layout.
EXTENSION_FAMILIES = {"K3": ([K3], 2), "C4": ([C4], 2), "P4": ([P4], 2),
                      "P5": ([P5], 2), "K3+P5": ([K3, P5], 2),
                      "K4_3": ([K4_3], 3)}


def _level_histograms(pred, n, r, workers=1):
    return _histograms(_levels(pred, n, r), workers)


def _hereditary(members, k):
    """Forb(F) and max_edges(k) ∧ Forb(F), the cap first so the naive
    oracle tests few graphs for copies."""
    forb = EdgePredicate.forb(normalize_family(members))
    return [forb, EdgePredicate.intersection([EdgePredicate.max_edges(k), forb])]


@pytest.mark.parametrize("name", EXTENSION_FAMILIES)
def test_extension_levels_match_naive_oracle(name):
    members, r = EXTENSION_FAMILIES[name]
    for pred in _hereditary(members, 4):
        obj = predicate_to_json_obj(pred)
        want = naive_level_histograms(5, r, lambda G: naive_satisfies(obj, G))
        assert _level_histograms(pred, 5, r) == want


@pytest.mark.parametrize("name", EXTENSION_FAMILIES)
def test_extension_levels_match_full_scan(name):
    members, r = EXTENSION_FAMILIES[name]
    n = 7 if r == 2 else 6
    for pred in _hereditary(members, 9):
        hists = _level_histograms(pred, n, r)
        assert len(hists) == n + 1
        for k, hist in enumerate(hists):
            assert hist == full_scan_histogram(pred, k, r)


def test_triangle_free_labelled_counts_from_one_pass():
    # OEIS A006785: labelled triangle-free graphs on 0..7 vertices.
    hists = _level_histograms(FORB_K3, 7, 2)
    assert [sum(h) for h in hists] == [1, 1, 2, 7, 41, 388, 5789, 133501]


def test_triangle_free_labelled_count_at_eight_vertices():
    # OEIS A006785: 4,682,270 labelled triangle-free graphs on 8 vertices,
    # each of probability 2^-28 at p = 1/2.
    assert exact_measure(8, 2, HALF, FORB_K3, cap_bits=28).value == Fraction(
        4682270, 1 << 28)


def test_parent_with_more_choices_than_a_block():
    # Forbidding the one-edge 6-graph on 6 vertices leaves the empty graph
    # alone.  At n = 8 the new vertex has C(7,5) = 21 edges, so the one
    # parent of the last level has 2^21 choices, above a 2^16-mask block;
    # the walk still holds at most 2^20 masks.
    import tracemalloc

    edge = graph_from_edges(6, 6, [tuple(range(6))])
    pred = EdgePredicate.forb(normalize_family([edge]))
    tracemalloc.start()
    try:
        value = exact_measure(8, 6, THIRD, pred, cap_bits=28).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == (1 - THIRD) ** 28
    assert peak <= _SLICE_MASKS * np.dtype(np.uint64).itemsize


@pytest.mark.parametrize("n, r, pred", [
    (6, 2, FORB_K3),
    (6, 2, EdgePredicate.forb(normalize_family([C4, P5]))),
    (6, 2, EdgePredicate.intersection([EdgePredicate.forb(normalize_family(
        [P4])), EdgePredicate.max_edges(6)])),
    (6, 3, EdgePredicate.forb(normalize_family([K4_3]))),
    (6, 4, EdgePredicate.forb(normalize_family([complete_graph(5, 4)]))),
], ids=["K3", "C4+P5", "P4-and-max-edges", "K4_3", "K5_4"])
def test_levels_with_closed_choice_bits_match_whole_parents(
        monkeypatch, n, r, pred):
    # With 2 open bits, every level of more than 2 choice bits sets the
    # higher ones in its parents; the walk must count the same classes.
    whole = _histograms(_levels(pred, n, r), 1)
    monkeypatch.setattr("hlab.measure._OPEN_BITS", 2)
    assert _histograms(_levels(pred, n, r), 1) == whole
    assert _histograms(_levels(pred, n, r), 2) == whole


@pytest.mark.parametrize("p", [Fraction(0), THIRD, HALF, Fraction(1)])
def test_extension_edge_cases_match_naive_measure(p):
    cases = [
        (3, 2, EdgePredicate.forb(normalize_family([P5]))),  # member order > n
        (4, 2, EdgePredicate.forb(normalize_family([K3, P5]))),
        (2, 3, EdgePredicate.forb(normalize_family([K4_3]))),  # n < r
        (5, 3, EdgePredicate.forb(normalize_family([K4_3]))),
        (0, 2, FORB_K3),
        (1, 2, FORB_K3),
        (4, 2, EdgePredicate.intersection([EdgePredicate.intersection([]),
                                           FORB_K3])),
        (4, 2, EdgePredicate.intersection(  # empty from level 0 on
            [FORB_K3, EdgePredicate.max_edges(-1)])),
        (4, 2, EdgePredicate.intersection([FORB_K3, EdgePredicate.max_edges(3)])),
        (4, 2, EdgePredicate.intersection(
            [EdgePredicate.intersection([FORB_K3]),
             EdgePredicate.forb(normalize_family([P4]))])),
    ]
    for n, r, pred in cases:
        obj = predicate_to_json_obj(pred)
        want = naive_measure(n, r, p, lambda G: naive_satisfies(obj, G))
        assert exact_measure(n, r, p, pred).value == want


def test_weight_powers_are_mask_probabilities():
    for p in (Fraction(0), THIRD, Fraction(1), Fraction(2, 7)):
        weights, den = weight_powers(p, 6)
        assert den == p.denominator ** 6
        assert all(type(w) is int for w in weights)
        assert tuple(Fraction(w, den) for w in weights) == tuple(
            p ** e * (1 - p) ** (6 - e) for e in range(7))


# Full scans of N = 10 (one block of 2^10), 15 and 21 bits (32 blocks).
# max_edges(3) leaves most blocks of n = 7 outside its window, explicit([])
# every block, and min_edges(N - 1) all but the top runs of each block.
SCAN_ORDER_PREDICATES = {
    "min_edges": lambda n, N: EdgePredicate.min_edges(N // 2),
    "min_edges_near_N": lambda n, N: EdgePredicate.min_edges(N - 1),
    "max_edges": lambda n, N: EdgePredicate.max_edges(3),
    "explicit_empty": lambda n, N: EdgePredicate.explicit([]),
    "contains": lambda n, N: EdgePredicate.contains(
        normalize_family([C4]), within=range(1, n)),
    "explicit": lambda n, N: EdgePredicate.explicit(
        range(1, 1 << N, (1 << N) // 37)),
    "complement": lambda n, N: EdgePredicate.complement(
        EdgePredicate.intersection([EdgePredicate.forb(normalize_family(
            [K3])), EdgePredicate.max_edges(N // 3)])),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("name", SCAN_ORDER_PREDICATES)
def test_full_scan_in_edge_order_matches_natural_order(name, n, workers):
    N = comb(n, 2)
    pred = SCAN_ORDER_PREDICATES[name](n, N)
    levels = _levels(pred, n, 2)
    assert [(lo, hi) for lo, hi, *_ in levels] == [(0, N)]
    rule = _rule(pred, n, 2)
    masks = np.arange(1 << N, dtype=np.uint64)
    column = rule(masks)
    # the full scan's uint32 lane gives the uint64 column
    assert np.array_equal(rule(masks.astype(np.uint32)), column)
    kept = np.bitwise_count(masks[column])
    want = np.bincount(kept, minlength=N + 1).tolist()
    assert _histograms(levels, workers) == [want]


def test_edge_window_of_every_kind():
    fam = normalize_family([K3])
    for pred, window in (
            (EdgePredicate.min_edges(4), (4, 10)),
            (EdgePredicate.min_edges(-2), (0, 10)),
            (EdgePredicate.min_edges(11), (11, 10)),
            (EdgePredicate.max_edges(3), (0, 3)),
            (EdgePredicate.max_edges(-1), (0, -1)),
            (EdgePredicate.explicit([0b110, 0b10111, 0b1]), (1, 4)),
            (EdgePredicate.explicit([]), (1, 0)),
            (FORB_K3, (0, 10)),
            (EdgePredicate.contains(fam, within=(0, 1, 2)), (0, 10)),
            (EdgePredicate.complement(EdgePredicate.max_edges(3)), (0, 10)),
            (EdgePredicate.intersection([]), (0, 10)),
            (EdgePredicate.intersection([EdgePredicate.min_edges(2),
                                         EdgePredicate.max_edges(7),
                                         FORB_K3]), (2, 7)),
            (EdgePredicate.intersection([EdgePredicate.min_edges(5),
                                         EdgePredicate.max_edges(4)]),
             (5, 4))):
        assert _edge_window(pred, 10) == window, pred


@given(SPACES)
def test_edge_window_never_drops_a_member(space):
    # A full scan builds only the masks whose edge count lies in the
    # window, so every mask outside it must fail the predicate.
    n, pred = space
    N = comb(n, 2)
    least, most = _edge_window(pred, N)
    assert least >= 0 and most <= N
    obj = predicate_to_json_obj(pred)
    for mask in range(1 << N):
        if not least <= mask.bit_count() <= most:
            assert not naive_satisfies(obj, RUniformGraph(n, 2, mask)), mask


def test_hard_cap_fits_the_uint32_full_scan_lane():
    assert _edge_order(4).dtype == np.uint32
    assert HARD_EXACT_CAP_BITS <= 32, (
        "a full scan carries its masks in uint32 (measure._walk and "
        "_edge_order); a hard cap above 32 bits would wrap them")


def test_vertex_cells_of_every_kind():
    fam = normalize_family([K3])
    scoped = EdgePredicate.contains(fam, within=(1, 3))
    one = (0,) * 5
    for pred, cells in (
            (EdgePredicate.min_edges(2), one),
            (EdgePredicate.max_edges(2), one),
            (FORB_K3, one),
            (EdgePredicate.contains(fam), one),
            (scoped, (0, 1, 0, 1, 0)),
            (EdgePredicate.contains(fam, within=()), one),
            (EdgePredicate.contains(fam, within=range(5)), (1,) * 5),
            (EdgePredicate.explicit([3]), (0, 1, 2, 3, 4)),
            (EdgePredicate.complement(scoped), (0, 1, 0, 1, 0)),
            (EdgePredicate.intersection([]), one),
            (EdgePredicate.intersection([FORB_K3, scoped]), (0, 1, 0, 1, 0)),
            (EdgePredicate.intersection(
                [scoped, EdgePredicate.contains(fam, within=(3, 4))]),
             (0, 1, 0, 2, 3))):
        assert _vertex_cells(pred, 5) == cells, pred


@given(SPACES)
def test_vertex_cells_fix_the_class(space):
    # Every permutation that maps each cell onto itself maps the class
    # onto itself, by the definition of each kind.
    n, pred = space
    cell = _vertex_cells(pred, n)
    obj = predicate_to_json_obj(pred)
    graphs = [RUniformGraph(n, 2, mask) for mask in range(1 << comb(n, 2))]
    inside = [naive_satisfies(obj, G) for G in graphs]
    for sigma in permutations(range(n)):
        if all(cell[sigma[v]] == cell[v] for v in range(n)):
            assert [naive_satisfies(obj, permute_graph(G, sigma))
                    for G in graphs] == inside


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_reduces_blocks_in_edge_order(monkeypatch, workers):
    # A full scan's blocks leave the walk sorted by edge count; a vertex
    # walk's last level comes parent by parent and _scan sorts it.  Each
    # block the reducer sees is one block of the walk, sorted.
    import hlab.supersat
    from hlab.supersat import Instance, _scan

    walk, raw, reduced = hlab.supersat._walk, [], []

    def spy(levels, workers, per_block):
        def seen(k, parents, allowed, width):
            if len(levels) == 1:  # a full scan: masks, kept, hist
                raw.append(parents[allowed])
                assert width.tolist() == np.bincount(np.bitwise_count(
                    raw[-1]), minlength=22).tolist()
            elif k == len(levels) - 1:
                raw.append(_children(parents, allowed, levels[k].lo, width))
            return per_block(k, parents, allowed, width)
        return walk(levels, workers, seen)

    def reducer(masks, hist, cols, by_edges):
        # a block that keeps every mask is the walk's buffer, reused by
        # the worker's next block: keep a copy
        reduced.append(masks.copy())
        assert hist.tolist() == np.bincount(np.bitwise_count(masks),
                                            minlength=22).tolist()
        ones = np.ones(masks.shape, dtype=np.int64)
        assert by_edges(ones).tolist() == hist.tolist()
        return hist

    def in_edge_order(masks):
        return bool((np.diff(np.bitwise_count(masks).astype(int)) >= 0).all())

    def contents(blocks):
        return sorted(np.sort(m).tobytes() for m in blocks)

    monkeypatch.setattr(hlab.supersat, "_walk", spy)
    fam = normalize_family([K3])
    for A, full in ((EdgePredicate.min_edges(9), True), (FORB_K3, False)):
        raw.clear()
        reduced.clear()
        inst = Instance(n=7, r=2, p=Fraction(1, 2), predicate=A, family=fam)
        list(_scan(inst, 21, [(0, 1, 2), (2, 3, 4, 5)], workers, reducer))
        assert len(raw) > 1 and contents(raw) == contents(reduced)
        assert all(map(in_edge_order, reduced))
        assert all(map(in_edge_order, raw)) == full
        # a full scan's blocks in uint32 lanes, a vertex walk's in uint64
        lane = np.uint32 if full else np.uint64
        assert {m.dtype for m in raw + reduced} == {np.dtype(lane)}


def test_extension_memory_within_one_scan_chunk():
    # r = 1 doubles every level, and the max_edges(22) rules keep all 2^22
    # masks at n = 22: the widest frontiers an extension can meet.  Its
    # peak must stay within one scan chunk, _SLICE_MASKS masks, and the
    # full scan of the same class, which builds its candidates block by
    # block, within that too.
    import tracemalloc

    def traced(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cap = EdgePredicate.max_edges(22)
    levels = [(lo, hi, _rule(cap, k, 1, through=k - 1))
              for k, (lo, hi) in enumerate(vertex_levels(22, 1))]
    ext_hists, ext_peak = traced(lambda: _histograms(levels, 1))
    scan_value, scan_peak = traced(
        lambda: exact_measure(22, 1, HALF, cap, cap_bits=22).value)
    assert [sum(h) for h in ext_hists] == [1 << k for k in range(23)]
    assert scan_value == 1
    chunk = _SLICE_MASKS * np.dtype(np.uint64).itemsize
    assert ext_peak <= chunk
    assert scan_peak <= chunk


def test_extension_errors_unchanged():
    with pytest.raises(ParameterError) as exc:
        exact_measure(4, 3, HALF, FORB_K3)
    assert str(exc.value) == "uniformity mismatch: space r=3, family r=2"
    with pytest.raises(FeasibilityError) as exc:
        exact_measure(9, 2, HALF, FORB_K3, cap_bits=20)
    assert str(exc.value) == (
        "mask space 2^36 for (n=9, r=2) exceeds the exact cap 2^20; "
        "fall back to mc_measure for a sampled estimate")
    # cn_sequence raises in list order, as when each n was measured alone.
    fam = normalize_family([K3])
    with pytest.raises(FeasibilityError, match=r"2\^36"):
        cn_sequence(fam, HALF, [3, 9, 1], cap_bits=20)
    with pytest.raises(ParameterError, match=r"C\(1,2\) = 0"):
        cn_sequence(fam, HALF, [3, 1, 9], cap_bits=20)
    with pytest.raises(ParameterError, match="zero measure"):
        cn_sequence(fam, Fraction(1), [2, 3, 9], cap_bits=20)
    with pytest.raises(ParameterError, match="edge probability"):
        cn_sequence(fam, Fraction(2), [9], cap_bits=20)
    # No graph on 6 vertices is free of K3 and its complement (R(3,3) = 6),
    # and neither the empty nor the complete graph shows n = 5 or 6 has one.
    ramsey = normalize_family([K3, RUniformGraph(3, 2, 0)])
    with pytest.raises(ParameterError, match="zero measure"):
        cn_sequence(ramsey, HALF, [5, 6, 9], cap_bits=20)
    assert cn_sequence(fam, Fraction(2), []) == []


def test_cn_sequence_points_in_list_order():
    fam = normalize_family([C4])
    pts = cn_sequence(fam, THIRD, [6, 2, 6, 4])
    assert [pt.n for pt in pts] == [6, 2, 6, 4]
    for pt in pts:
        assert pt.mu == exact_measure(pt.n, 2, THIRD,
                                      EdgePredicate.forb(fam)).value
        assert pt.c_n == cn_from_measure(pt.n, 2, pt.mu)


def test_hereditary_predicates_skip_the_full_scan(walks):
    cap = EdgePredicate.max_edges(3)
    for pred in (FORB_K3, EdgePredicate.intersection([FORB_K3, cap]),
                 EdgePredicate.intersection(
                     [cap, EdgePredicate.intersection([FORB_K3])])):
        exact_measure(5, 2, HALF, pred)
    cn_sequence(normalize_family([K3]), HALF, [2, 5, 4])
    # One level per vertex, and one walk up to the largest n.
    assert walks == [vertex_levels(5, 2)] * 4
    walks.clear()
    # Not hereditary, or an edge bound with no forbidden family to test:
    # the full scan is cheaper than the extension for the latter.  Each
    # is one level over all C(5,2) columns.
    for pred in (EdgePredicate.min_edges(3), EdgePredicate.complement(FORB_K3),
                 EdgePredicate.intersection([FORB_K3,
                                             EdgePredicate.min_edges(3)]),
                 cap, EdgePredicate.intersection([cap, cap]),
                 EdgePredicate.intersection([])):
        exact_measure(5, 2, HALF, pred)
    assert walks == [[(0, 10)]] * 6

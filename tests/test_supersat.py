import json
from fractions import Fraction
from math import comb, floor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hlab.errors import (FeasibilityError, ParameterError, ParseError,
                         SizeLimitError)
from hlab.family import normalize_family
from hlab.hypergraph import (RUniformGraph, complete_graph, graph_from_edges,
                             permute_graph, subsets_colex)
from hlab.measure import (HARD_EXACT_CAP_BITS, EdgePredicate, exact_measure,
                          predicate_to_json_obj, value_from_histogram)
from hlab.steiner import SteinerSystem
from hlab.supersat import (MAX_RESULT_BITS, Instance, LemmaParameters,
                           _orbits, _theta_scan, _x_scan, counting_floor,
                           instance_from_json_obj, instance_to_json_obj,
                           lemma_report, load_instance,
                           params_from_json_obj, params_to_json_obj,
                           partition_table, projection_bound_check,
                           save_instance, tail_mass, x_set)

from oracles import (full_scan_histogram, naive_partition_cells,
                     naive_satisfies, naive_theta_scan, vertex_levels)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
K3 = complete_graph(3, 2)
FAM_K3 = normalize_family([K3])
FORB_K3 = EdgePredicate.forb(FAM_K3)
ALWAYS = EdgePredicate.min_edges(0)
# an induced path on three vertices
FAM_P3 = normalize_family([graph_from_edges(3, 2, [(0, 1), (1, 2)])])

SYS6 = SteinerSystem(r=2, m=3, n=6,
                     blocks=((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)))
PARAMS6 = LemmaParameters(nu=Fraction(1, 4), m=3)


def _inst(A, sys=None, fam=FAM_K3, p=HALF, params=None, n=None):
    """The instance of class A over sys, or over n vertices without one."""
    return Instance(n=sys.n if n is None else n, r=fam.r, p=p, predicate=A,
                    family=fam, system=sys, params=params)


def small_systems():
    return st.sampled_from([
        SteinerSystem(r=2, m=3, n=5, blocks=((0, 1, 2), (0, 3, 4))),
        SteinerSystem(r=2, m=3, n=6, blocks=((0, 1, 2), (3, 4, 5))),
        SYS6,
        SteinerSystem(r=2, m=3, n=6,
                      blocks=((0, 1, 2), (0, 3, 4), (1, 3, 5))),
        SteinerSystem(r=2, m=4, n=6, blocks=((0, 1, 2, 3),)),
    ])


# Classes fixed by every vertex permutation, then classes fixed only by
# those that keep a scope, or by the identity: {S, V - S} and singleton
# vertex partitions, on n = 5 and 6.
SYMMETRIC6 = [
    ALWAYS,
    FORB_K3,
    EdgePredicate.min_edges(8),
    EdgePredicate.max_edges(6),
    EdgePredicate.intersection(
        [EdgePredicate.min_edges(3), EdgePredicate.max_edges(9)]),
]
ASYMMETRIC6 = [
    EdgePredicate.contains(FAM_K3, within=(0, 1, 2, 3)),
    EdgePredicate.explicit(range(0, 1 << 10, 3)),
    EdgePredicate.complement(
        EdgePredicate.contains(FAM_K3, within=(1, 2, 3, 4))),
    EdgePredicate.intersection(
        [FORB_K3, EdgePredicate.contains(FAM_P3, within=(0, 2, 4))]),
]


def predicates6():
    return st.sampled_from(SYMMETRIC6 + ASYMMETRIC6)


def block_theta(A, block, fam, n, p):
    """theta_i by its own full scan, the route apart from _theta_scan:
    the measure of A and some member induced inside the block."""
    pred = EdgePredicate.intersection(
        (A, EdgePredicate.contains(fam, within=block)))
    return exact_measure(n, fam.r, p, pred).value


def test_block_theta_triangle_inside_block():
    assert block_theta(ALWAYS, (0, 1, 2), FAM_K3, 6, HALF) == Fraction(1, 8)


def test_block_theta_forbidden_class_is_zero():
    assert block_theta(FORB_K3, (0, 1, 2), FAM_K3, 6, HALF) == 0


def test_block_theta_rejects_bad_block():
    with pytest.raises(ParameterError):
        block_theta(ALWAYS, (0, 0, 1), FAM_K3, 5, HALF)
    with pytest.raises(ParameterError):
        block_theta(ALWAYS, (0, 1, 9), FAM_K3, 5, HALF)


@given(small_systems(), predicates6(), st.sampled_from([HALF, THIRD]))
def test_theta_at_most_mu(sys, A, p):
    mu = exact_measure(sys.n, 2, p, A).value
    for b in sys.blocks:
        th = block_theta(A, b, FAM_K3, sys.n, p)
        assert 0 <= th <= mu


@given(small_systems(), predicates6())
def test_single_pass_matches_block_theta(sys, A):
    mu = exact_measure(sys.n, 2, HALF, A).value
    params = LemmaParameters(nu=Fraction(1, 4), m=sys.m)
    report = lemma_report(_inst(A, sys, params=params))
    assert report.mu_A == mu
    assert report.theta == tuple(block_theta(A, b, FAM_K3, sys.n, HALF)
                                 for b in sys.blocks)
    xrep = x_set(_inst(A, n=sys.n), sys.m, Fraction(1, 4))
    assert xrep.mu_A == mu
    assert xrep.averaging_lhs == sum(
        (block_theta(A, D, FAM_K3, sys.n, HALF)
         for D in subsets_colex(sys.n, sys.m)), Fraction(0))
    # p is checked once, when the instance is built, with or without a
    # system and knobs
    for system, knobs in ((sys, params), (None, None)):
        with pytest.raises(ParameterError, match="outside"):
            Instance(n=sys.n, r=2, p=Fraction(3, 2), predicate=A,
                     family=FAM_K3, system=system, params=knobs)


def test_x_set_builds_mask_weights_once():
    # The values are mu(A), theta once per orbit of the 20 3-subsets,
    # their sum and the mask route's sum: one orbit for a class every
    # vertex permutation fixes, 20 when only the identity does.
    from hlab.measure import weight_powers

    explicit = EdgePredicate.explicit(range(0, 1 << 15, 5))
    for A, values in ((EdgePredicate.min_edges(8), 4), (explicit, 23)):
        weight_powers.cache_clear()
        x_set(_inst(A, n=6), 3, Fraction(1, 4))
        info = weight_powers.cache_info()
        assert (info.misses, info.hits) == (1, values - 1)
    # one more (p, N), one more miss
    x_set(_inst(EdgePredicate.min_edges(8), n=6, p=THIRD), 3, Fraction(1, 4))
    assert weight_powers.cache_info().misses == 2


@given(predicates6(), st.sampled_from([HALF, THIRD]), st.sampled_from([3, 4]))
def test_x_set_matches_per_mask_scan(A, p, m):
    # n = 5 keeps the naive scan to 2^10 masks; the best graph is the
    # mask with the most member m-subsets, smallest on ties, however the
    # blocks order their masks.
    n, gamma = 5, Fraction(1, 4)
    dsets = subsets_colex(n, m)
    obj = predicate_to_json_obj(A)
    mu, theta, weighted, best = naive_theta_scan(
        n, 2, p, lambda G: naive_satisfies(obj, G), dsets, FAM_K3.members)
    inst = _inst(A, n=n, p=p)
    assert _x_scan(inst, comb(n, 2), dsets, 1) == (
        mu, theta, weighted, weighted, best)
    assert _theta_scan(inst, comb(n, 2), dsets, 1) == (mu, theta)
    rep = x_set(inst, m, gamma)
    assert rep.mu_A == mu
    assert rep.averaging_lhs == weighted == sum(theta, Fraction(0))
    assert rep.x_members == tuple(d for d, th in zip(dsets, theta)
                                  if th >= gamma * mu)
    if best is None:
        assert (rep.best_graph, rep.best_mset_count) == (None, 0)
    else:
        assert rep.best_mset_count == best[0]
        assert rep.best_graph == RUniformGraph(n, 2, best[1])


def test_orbits_group_by_cell_counts():
    # Scope {0, 1, 2} on five vertices: a 3-subset has 3, 2 or 1 of its
    # vertices in the scope, so the ten fall into three orbits.
    dsets = subsets_colex(5, 3)
    scoped = EdgePredicate.contains(FAM_K3, within=(0, 1, 2))
    orbit, reps = _orbits(_inst(scoped, n=5), dsets)
    inside = [sum(v < 3 for v in D) for D in dsets]
    assert [dsets[i] for i in reps] == [(0, 1, 2), (0, 1, 3), (0, 3, 4)]
    assert orbit.tolist() == [(3, 2, 1).index(k) for k in inside]
    for A, count in ((EdgePredicate.min_edges(3), 1),
                     (EdgePredicate.explicit([7]), 10)):
        orbit, reps = _orbits(_inst(A, n=5), dsets)
        assert len(reps) == count and orbit.max() == count - 1


FANO = SteinerSystem(r=2, m=3, n=7, blocks=(
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6),
    (2, 4, 5)))


def test_full_block_reaches_the_reducer_without_a_copy(monkeypatch):
    # min_edges' window is exact, so each of its full-scan blocks keeps
    # every mask built and is handed to the kernel rows as the walk built
    # it; a block of a class that drops masks is handed on as a copy of
    # its survivors.  The lemma outputs match the per-block route.
    import hlab.supersat

    walk, rows = hlab.supersat._walk, hlab.supersat._contains_rows
    built, passed = [], []

    def walk_spy(levels, workers, per_block):
        def seen(k, masks, kept, hist):
            built.append((masks, bool(kept.all())))
            return per_block(k, masks, kept, hist)
        return walk(levels, workers, seen)

    def rows_spy(*args):
        run = rows(*args)

        def spied(masks):
            walked, whole = built[-1]
            passed.append((whole, masks is walked))
            return run(masks)
        return spied

    monkeypatch.setattr(hlab.supersat, "_walk", walk_spy)
    monkeypatch.setattr(hlab.supersat, "_contains_rows", rows_spy)
    scoped = EdgePredicate.contains(FAM_P3, within=(0, 1, 2, 3))
    params = LemmaParameters(nu=Fraction(1, 4), m=3)
    for A, whole in ((EdgePredicate.min_edges(12), True), (scoped, False)):
        passed.clear()
        report = lemma_report(_inst(A, FANO, params=params))
        assert len(passed) > 1 and all(kept == same for kept, same in passed)
        assert all(kept for kept, _ in passed) == whole
        assert report.mu_A == exact_measure(7, 2, HALF, A).value
        assert report.theta == tuple(block_theta(A, b, FAM_K3, 7, HALF)
                                     for b in FANO.blocks)


def test_lemma_scan_asks_for_one_row_per_orbit(monkeypatch):
    # The Fano plane's 7 blocks are one orbit of a class that every vertex
    # permutation fixes, and 7 of an explicit class: the lemma's scan asks
    # the kernel for those vertex sets alone.
    import hlab.supersat

    asked = []
    real = hlab.supersat._contains_rows

    def spy(n, r, fam, vsets, *args, **kwargs):
        asked.append(list(vsets))
        return real(n, r, fam, vsets, *args, **kwargs)

    monkeypatch.setattr(hlab.supersat, "_contains_rows", spy)
    params = LemmaParameters(nu=HALF, m=3)
    explicit = EdgePredicate.explicit(range(0, 1 << 21, 4099))
    for A, sets in ((EdgePredicate.min_edges(12), [FANO.blocks[0]]),
                    (explicit, list(FANO.blocks))):
        asked.clear()
        report = lemma_report(_inst(A, FANO, params=params))
        assert asked == [sets]
        assert report.theta == tuple(block_theta(A, b, FAM_K3, 7, HALF)
                                     for b in FANO.blocks)


def _perturb_first_orbit(monkeypatch):
    # one more mask of no edges in the first orbit's theta histogram
    import hlab.supersat

    real = hlab.supersat._spread

    def spread(hists, orbit, p):
        hists = hists.copy()
        hists[0, 0] += 1
        return real(hists, orbit, p)

    monkeypatch.setattr(hlab.supersat, "_spread", spread)


def _one_cell_for_all(monkeypatch):
    # a grouping that ignores a scope: every vertex set in one orbit
    import hlab.supersat

    monkeypatch.setattr(hlab.supersat, "_vertex_cells",
                        lambda pred, n: (0,) * n)


@pytest.mark.parametrize("fault", [_perturb_first_orbit, _one_cell_for_all])
def test_second_routes_check_the_grouping(monkeypatch, fault):
    # x_set's averaging identity and partition_table's cell route compare
    # every column with the orbits' representatives, so one wrong orbit
    # histogram, or orbits that join vertex sets of unequal theta, raise.
    from hlab.errors import ConstructionError

    scoped = EdgePredicate.contains(FAM_K3, within=(0, 1, 2, 3))
    x_set(_inst(scoped, n=5), 3, Fraction(1, 4))
    partition_table(_inst(scoped, SYS6))
    fault(monkeypatch)
    with pytest.raises(ConstructionError, match="averaging accumulators"):
        x_set(_inst(scoped, n=5), 3, Fraction(1, 4))
    with pytest.raises(ConstructionError, match="containment-pattern"):
        partition_table(_inst(scoped, SYS6))


def test_best_graph_is_smallest_mask_on_ties():
    # Without the lone triangle 0-1-2 (mask 7), the smallest mask with one
    # triangle is 0-1-2 plus the edge 0-3 (mask 15, 4 edges), though the
    # edge-sorted block reaches the 3-edge triangle 0-1-3 (mask 25) first.
    A = EdgePredicate.intersection([
        EdgePredicate.max_edges(4),
        EdgePredicate.complement(EdgePredicate.explicit([7]))])
    obj = predicate_to_json_obj(A)
    best = naive_theta_scan(5, 2, HALF, lambda G: naive_satisfies(obj, G),
                            subsets_colex(5, 3), FAM_K3.members)[3]
    assert best == (1, 15)
    rep = x_set(_inst(A, n=5), 3, Fraction(1, 4))
    assert (rep.best_mset_count, rep.best_graph.edge_mask) == best


PAIR_1 = normalize_family([graph_from_edges(2, 1, [(0,), (1,)])])


@pytest.mark.parametrize("open_bits", [16, 4])
@pytest.mark.parametrize("d", [0, 5])
def test_partition_dense_table_matches_naive_oracle(monkeypatch, d,
                                                    open_bits):
    # r = 1, n = 10: d = 0 and d = 5, every vertex in a block, are the
    # smallest and largest order a (1, 2, 10) system takes, and the limit
    # set to the d = 5 table admits both.  With 4 open bits the full scan
    # is 64 blocks of 16 masks, each adding its counts to the table.
    import hlab.measure
    import hlab.supersat

    sys = SteinerSystem(r=1, m=2, n=10,
                        blocks=tuple((2 * i, 2 * i + 1) for i in range(d)))
    monkeypatch.setattr(hlab.supersat, "MAX_PARTITION_ENTRIES", 11 << 5)
    monkeypatch.setattr(hlab.measure, "_OPEN_BITS", open_bits)
    for A in (ALWAYS, EdgePredicate.max_edges(6),
              EdgePredicate.complement(EdgePredicate.explicit([3, 12, 1023]))):
        table = partition_table(_inst(A, sys, fam=PAIR_1, p=THIRD))
        obj = predicate_to_json_obj(A)
        expect = naive_partition_cells(
            10, 1, THIRD, lambda G: naive_satisfies(obj, G), sys.blocks,
            PAIR_1.members)
        assert list(table.cells) == sorted(expect)
        assert table.cells == expect
        assert table.total == exact_measure(10, 1, THIRD, A).value


def test_partition_table_limit(tmp_path, capsys, monkeypatch, walks):
    # The (pattern, edges) table of SYS6 holds 2^4 x 16 entries: with the
    # limit one entry below, the CLI prints one error line and scans
    # nothing; at the limit the report is built.
    import hlab.supersat
    from hlab.cli import main

    path = str(tmp_path / "inst6.json")
    save_instance(Instance(n=6, r=2, p=HALF,
                           predicate=EdgePredicate.min_edges(8),
                           family=FAM_K3, system=SYS6), path)
    argv = ["partition", "--instance", path]
    monkeypatch.setattr(hlab.supersat, "MAX_PARTITION_ENTRIES", (16 << 4) - 1)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "2^4 patterns x 16 edge counts" in captured.err
    assert captured.err.count("\n") == 1
    assert walks == []
    monkeypatch.setattr(hlab.supersat, "MAX_PARTITION_ENTRIES", 16 << 4)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["identity_ok"] is True


def test_partition_limit_admits_every_capped_space(monkeypatch):
    # The largest table a mask space within HARD_EXACT_CAP_BITS needs:
    # 15 disjoint pairs at r = 1, n = 30, 2^15 x 31 entries.  Stop where
    # the scan would begin.
    import hlab.supersat

    class Scanned(Exception):
        pass

    def stop(*args):
        raise Scanned

    sys = SteinerSystem(r=1, m=2, n=30,
                        blocks=tuple((2 * i, 2 * i + 1) for i in range(15)))
    monkeypatch.setattr(hlab.supersat, "_scan", stop)
    with pytest.raises(Scanned):
        partition_table(_inst(ALWAYS, sys, fam=PAIR_1),
                        cap_bits=HARD_EXACT_CAP_BITS)


def test_empty_class_through_every_scan():
    empty = EdgePredicate.min_edges(comb(6, 2) + 1)
    rep = x_set(_inst(empty, n=6), 3, Fraction(1, 4))
    assert rep.mu_A == 0 and rep.averaging_lhs == 0
    assert (rep.best_graph, rep.best_mset_count, rep.distinct_copies) == (
        None, 0, 0)
    lemma = lemma_report(_inst(empty, SYS6, params=PARAMS6))
    assert lemma.mu_A == 0 and lemma.theta == (0,) * SYS6.d
    table = partition_table(_inst(empty, SYS6))
    assert table.cells == {}
    assert table.total == table.weighted_sum == table.theta_sum == 0
    assert table.theta == (0,) * SYS6.d


def test_one_enumeration_pass_per_command(walks):
    full = [(0, comb(6, 2))]
    A = EdgePredicate.min_edges(8)
    partition_table(_inst(A, SYS6))
    assert walks == [full]
    walks.clear()
    x_set(_inst(A, n=6), 3, Fraction(1, 4))
    assert walks == [full]
    walks.clear()
    rep = lemma_report(_inst(A, SYS6, params=PARAMS6))
    # mu_m(B) of the hereditary Forb(F) walks the m + 1 vertex levels.
    assert walks == [full, vertex_levels(3, 2)]
    hist = full_scan_histogram(EdgePredicate.forb(FAM_K3), 3, 2)
    assert rep.mu_mB == value_from_histogram(hist, HALF)


@given(small_systems(), predicates6(), st.sampled_from([HALF, THIRD]))
def test_partition_identity_and_total(sys, A, p):
    table = partition_table(_inst(A, sys, p=p))
    # Construction already cross-checks the two routes; re-assert both
    # closure facts on the result.
    assert table.weighted_sum == table.theta_sum
    assert table.total == exact_measure(sys.n, 2, p, A).value


def test_partition_cells_match_naive_oracle(walks):
    sys = SteinerSystem(r=2, m=3, n=5, blocks=((0, 1, 2), (0, 3, 4)))
    capped = EdgePredicate.intersection([EdgePredicate.max_edges(4), FORB_K3])
    for A in (ALWAYS, EdgePredicate.min_edges(4), FORB_K3, capped):
        table = partition_table(_inst(A, sys, p=THIRD))
        obj = predicate_to_json_obj(A)
        expect = naive_partition_cells(
            5, 2, THIRD, lambda G: naive_satisfies(obj, G), sys.blocks,
            FAM_K3.members)
        assert table.cells == {k: v for k, v in expect.items() if v}
    # The hereditary classes are built vertex by vertex.
    full = [(0, comb(5, 2))]
    assert walks == [full, full, vertex_levels(5, 2), vertex_levels(5, 2)]


def test_partition_forbidden_class_single_empty_cell():
    table = partition_table(_inst(FORB_K3, SYS6))
    assert set(table.cells) == {0}
    assert table.cells[0] == exact_measure(6, 2, HALF, FORB_K3).value


def test_partition_example_instance():
    table = partition_table(_inst(EdgePredicate.min_edges(8), SYS6))
    assert table.weighted_sum == Fraction(1651, 4096)
    assert sum(table.cells.values(), Fraction(0)) == exact_measure(
        6, 2, HALF, EdgePredicate.min_edges(8)).value


def test_partition_rejects_mismatch():
    # An instance whose family, system and space disagree is never built.
    tri_fam = normalize_family([complete_graph(3, 3)])
    for n, r, fam in ((6, 3, tri_fam), (6, 2, tri_fam), (7, 2, FAM_K3),
                      (6, 3, FAM_K3)):
        with pytest.raises(ParameterError):
            Instance(n=n, r=r, p=HALF, predicate=ALWAYS, family=fam,
                     system=SYS6)
    assert partition_table(_inst(ALWAYS, SYS6)).d == SYS6.d


def test_partition_block_cap():
    blocks = tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(21))
    big = SteinerSystem(r=2, m=3, n=63, blocks=blocks)
    with pytest.raises(FeasibilityError):
        partition_table(_inst(ALWAYS, big))


def test_projection_equality_for_disjoint_blocks():
    # Edge-disjoint blocks make the avoid events independent, so the
    # empty cell hits the bound exactly.
    table = partition_table(_inst(ALWAYS, SYS6))
    mu_mB = exact_measure(3, 2, HALF, FORB_K3).value
    report = projection_bound_check(table, mu_mB)
    assert report.ok
    empty = next(c for c in report.cells if c.pattern == 0)
    assert empty.mu == Fraction(7, 8) ** 4
    assert empty.slack == 0


@given(small_systems(), predicates6(), st.sampled_from([HALF, THIRD]))
def test_projection_bound_cellwise(sys, A, p):
    table = partition_table(_inst(A, sys, p=p))
    mu_mB = exact_measure(sys.m, 2, p, FORB_K3).value
    report = projection_bound_check(table, mu_mB)
    assert report.ok
    for cell in report.cells:
        assert cell.mu <= cell.bound
        assert cell.slack == cell.bound - cell.mu


def test_projection_forb_class_bound():
    table = partition_table(_inst(FORB_K3, SYS6))
    report = projection_bound_check(table, Fraction(7, 8))
    assert report.ok
    assert table.cells[0] <= Fraction(7, 8) ** 4


def test_tail_mass_endpoints():
    mu = Fraction(7, 8)
    assert tail_mass(0, 4, mu) == mu ** 4
    assert tail_mass(1, 4, mu) == (1 + mu) ** 4
    assert tail_mass(HALF, 4, mu) == (
        mu ** 4 + 4 * mu ** 3 + 6 * mu ** 2)


@pytest.mark.parametrize("mu", [Fraction(0), HALF, Fraction(2, 3),
                                Fraction(7, 8), Fraction(1)])
@pytest.mark.parametrize("nu", [Fraction(0), HALF, Fraction(1)])
def test_tail_mass_matches_the_fraction_sum(nu, mu):
    # The sum over one denominator against the sum of Fractions it replaces.
    for d in [*range(40), 257]:
        want = sum((comb(d, i) * mu ** (d - i)
                    for i in range(floor(nu * d) + 1)), Fraction(0))
        assert tail_mass(nu, d, mu) == want, d


def test_tail_mass_size_limit():
    # mu = 7/8 takes 4 bits a power: d = 2^14 fills the limit exactly.
    d = MAX_RESULT_BITS // 4
    assert tail_mass(1, d, Fraction(7, 8)) == (Fraction(15, 8)) ** d
    for nu, d, mu in ((HALF, d + 1, Fraction(7, 8)),
                      (HALF, 10 ** 12, HALF),
                      (0, 2, Fraction(1 << MAX_RESULT_BITS))):
        with pytest.raises(SizeLimitError, match="tail mass of about"):
            tail_mass(nu, d, mu)


def test_tail_mass_dominates_table():
    table = partition_table(_inst(EdgePredicate.min_edges(8), SYS6))
    mu_mB = exact_measure(3, 2, HALF, FORB_K3).value
    bound = tail_mass(HALF, 4, mu_mB, table=table)
    assert bound >= table.small_mass(2)
    assert bound == Fraction(32193, 4096)


def test_tail_mass_rejects_bad_nu():
    with pytest.raises(ParameterError):
        tail_mass(Fraction(3, 2), 4, HALF)
    with pytest.raises(ParameterError):
        tail_mass(HALF, -1, HALF)


@given(st.fractions(min_value=0, max_value=1, max_denominator=8),
       st.fractions(min_value=0, max_value=1, max_denominator=8),
       st.integers(0, 8),
       st.fractions(min_value=0, max_value=1, max_denominator=16),
       st.fractions(min_value=0, max_value=1, max_denominator=16))
def test_tail_mass_monotone(nu1, nu2, d, mu1, mu2):
    if nu1 > nu2:
        nu1, nu2 = nu2, nu1
    if mu1 > mu2:
        mu1, mu2 = mu2, mu1
    assert tail_mass(nu1, d, mu1) <= tail_mass(nu2, d, mu1)
    assert tail_mass(nu1, d, mu1) <= tail_mass(nu1, d, mu2)


def test_lemma_report_eta_one():
    params = LemmaParameters(nu=Fraction(1, 4), gamma=Fraction(1, 16), m=3)
    report = lemma_report(_inst(ALWAYS, SYS6, params=params))
    assert report.theta == (Fraction(1, 8),) * 4
    assert report.index_set == (0, 1, 2, 3)
    assert report.eta == 1


def test_lemma_report_eta_zero_high_gamma():
    params = LemmaParameters(nu=Fraction(1, 4), gamma=Fraction(1, 4), m=3)
    report = lemma_report(_inst(ALWAYS, SYS6, params=params))
    assert report.index_set == ()
    assert report.eta == 0


def test_lemma_report_forbidden_class():
    params = LemmaParameters(nu=Fraction(1, 4), m=3)
    report = lemma_report(_inst(FORB_K3, SYS6, params=params))
    assert report.theta == (Fraction(0),) * 4
    assert report.eta == 0


@given(small_systems(), predicates6(),
       st.fractions(min_value=Fraction(1, 32), max_value=Fraction(31, 32),
                    max_denominator=32))
def test_lemma_threshold_set_integer_identity(sys, A, gamma):
    params = LemmaParameters(nu=Fraction(1, 4), gamma=gamma)
    report = lemma_report(_inst(A, sys, params=params))
    threshold = gamma * report.mu_A
    expect = tuple(i for i, th in enumerate(report.theta) if th >= threshold)
    assert report.index_set == expect
    assert report.eta * report.d == len(report.index_set)


def test_lemma_chain_check_applicable_instance():
    # r=1 design: five disjoint pairs on ten points; the family member is
    # a single vertex carrying its 1-edge, so mu_2(B) = 1/4 at p = 1/2
    # and the closed-form tail drops below mu(A)/2.
    vertex_edge = graph_from_edges(1, 1, [(0,)])
    fam = normalize_family([vertex_edge])
    sys = SteinerSystem(r=1, m=2, n=10,
                        blocks=tuple((2 * i, 2 * i + 1) for i in range(5)))
    params = LemmaParameters(nu=HALF, gamma=Fraction(1, 8), m=2)
    report = lemma_report(_inst(ALWAYS, sys, fam=fam, params=params))
    assert report.mu_mB == Fraction(1, 4)
    assert report.tail == Fraction(181, 1024)
    assert report.tail_small
    assert report.eta == 1
    assert report.chain_ok is True


def test_lemma_chain_check_skipped_when_tail_large():
    params = LemmaParameters(nu=HALF, gamma=Fraction(1, 16), m=3)
    report = lemma_report(_inst(EdgePredicate.min_edges(8), SYS6,
                                params=params))
    assert not report.tail_small
    assert report.chain_ok is None


def test_lemma_report_rejects_m_mismatch():
    params = LemmaParameters(nu=Fraction(1, 4), m=4)
    with pytest.raises(ParameterError, match="block order 3"):
        Instance(n=6, r=2, p=HALF, predicate=ALWAYS, family=FAM_K3,
                 system=SYS6, params=params)
    # without a system there is no block order to disagree with
    assert _inst(ALWAYS, n=6, params=params).params.m == 4


def test_lemma_parameters_validation():
    assert LemmaParameters(nu=Fraction(1, 4)).gamma == Fraction(1, 16)
    with pytest.raises(ParameterError):
        LemmaParameters(nu=Fraction(5, 4))
    with pytest.raises(ParameterError):
        LemmaParameters(nu=Fraction(1, 4), gamma=Fraction(1))
    with pytest.raises(ParameterError):
        LemmaParameters(nu=Fraction(1, 4), m=1)


def test_x_set_complete_graph():
    full = (1 << comb(6, 2)) - 1
    report = x_set(_inst(EdgePredicate.explicit([full]), n=6), 3,
                   Fraction(1, 2))
    assert report.x_size == 20
    assert report.x_members == subsets_colex(6, 3)
    assert report.best_graph.edge_mask == full
    assert report.best_mset_count == 20
    assert report.distinct_copies == 20
    assert report.averaging_ok


def test_x_set_forbidden_class_empty():
    report = x_set(_inst(FORB_K3, n=6), 3, Fraction(1, 4))
    assert report.x_size == 0
    assert report.averaging_ok


def test_x_set_min_edges_consistency():
    report = x_set(_inst(EdgePredicate.min_edges(12), n=6), 3, Fraction(1, 4))
    assert report.x_size > 0
    assert report.averaging_ok
    assert report.averaging_lhs >= report.averaging_rhs
    assert report.best_mset_count >= report.x_size * 0
    assert report.distinct_copies >= report.best_mset_count // comb(3, 0)


def test_x_set_eta_and_delta_floor():
    report = x_set(_inst(EdgePredicate.min_edges(12), n=6), 3, Fraction(1, 4))
    assert report.eta_eff == Fraction(report.x_size, comb(6, 3))
    assert report.delta_floor == (Fraction(1, 4) * report.eta_eff
                                  * Fraction(6 ** 3, 6 ** 3))


def test_x_set_permutation_invariance():
    sigma = (3, 5, 0, 1, 4, 2)
    G = RUniformGraph(n=6, r=2, edge_mask=0b101011001101010)
    base = EdgePredicate.explicit([G.edge_mask])
    moved = EdgePredicate.explicit([permute_graph(G, sigma).edge_mask])
    a = x_set(_inst(base, n=6), 3, Fraction(1, 4))
    b = x_set(_inst(moved, n=6), 3, Fraction(1, 4))
    assert a.x_size == b.x_size
    assert a.best_mset_count == b.best_mset_count
    assert a.distinct_copies == b.distinct_copies
    mapped = {tuple(sorted(sigma[v] for v in s)) for s in a.x_members}
    assert mapped == set(b.x_members)


def test_x_set_worker_independence():
    inst = _inst(EdgePredicate.min_edges(8), n=6)
    one = x_set(inst, 3, Fraction(1, 8), workers=1)
    four = x_set(inst, 3, Fraction(1, 8), workers=4)
    assert one == four


def test_x_set_parameter_validation():
    with pytest.raises(ParameterError):
        x_set(_inst(ALWAYS, n=6), 3, Fraction(0))
    with pytest.raises(ParameterError):
        x_set(_inst(ALWAYS, n=6), 9, Fraction(1, 2))


def test_counting_floor_example():
    res = counting_floor(10, 4, 2, 1, 1)
    assert res.ratio == Fraction(210, 28)
    assert res.floor == Fraction(100, 64)
    assert res.ok and res.proviso_met


def test_counting_floor_t_zero():
    res = counting_floor(10, 4, 0, HALF, HALF)
    assert res.ratio == res.floor == Fraction(1, 4)
    assert res.ok


def test_counting_floor_boundary_and_below():
    assert counting_floor(8, 4, 4, 1, 1).ok
    below = counting_floor(7, 4, 4, 1, 1)
    assert not below.proviso_met
    assert below.ratio == Fraction(35)
    assert below.floor == Fraction(7 ** 4, 8 ** 4) * 1


def test_counting_floor_grid():
    for t in range(2, 9):
        for m in range(t, 9):
            for n in range(max(2 * t, m), 41):
                res = counting_floor(n, m, t, Fraction(3, 7), Fraction(2, 5))
                assert res.ok and res.proviso_met


def test_counting_floor_ratio_is_the_binomial_ratio():
    for n in range(16):
        for m in range(n + 1):
            for t in range(m + 1):
                res = counting_floor(n, m, t, Fraction(3, 7), 1)
                assert res.ratio == Fraction(3, 7) * Fraction(
                    comb(n, m), comb(n - t, m - t))


def test_counting_floor_large_n():
    n, m = 10 ** 7, 5 * 10 ** 6
    res = counting_floor(n, m, 3, 1, 1)
    assert res.ratio == Fraction(n * (n - 1) * (n - 2),
                                 m * (m - 1) * (m - 2))
    assert res.floor == 1
    assert res.ok and res.proviso_met
    # t factors of n's 24 bits each
    counting_floor(n, m, MAX_RESULT_BITS // 24, 1, 1)
    with pytest.raises(SizeLimitError, match="counting floor of about"):
        counting_floor(n, m, MAX_RESULT_BITS // 24 + 1, 1, 1)


def test_counting_floor_rejects_bad_order():
    with pytest.raises(ParameterError):
        counting_floor(4, 5, 2, 1, 1)


def test_params_json_round_trip():
    params = LemmaParameters(nu=Fraction(1, 4), gamma=Fraction(1, 8), m=3)
    obj = params_to_json_obj(params)
    assert obj == {"nu": "1/4", "gamma": "1/8", "m": 3}
    assert params_from_json_obj(obj) == params
    old_keys = {**obj, "epsilon": "1/10", "lambda": "1/3"}
    assert params_from_json_obj(old_keys) == params
    with pytest.raises(ParseError):
        params_from_json_obj({"gamma": "1/4"})


@pytest.mark.parametrize("key, value", [("n", 6.0), ("r", "2"), ("n", True),
                                        ("params", {"nu": "1/4", "m": 3.0})])
def test_instance_json_integers(key, value):
    obj = instance_to_json_obj(Instance(n=6, r=2, p=HALF,
                                        predicate=EdgePredicate.min_edges(8),
                                        family=FAM_K3))
    with pytest.raises(ParseError):
        instance_from_json_obj({**obj, key: value})


def test_instance_json_round_trip(tmp_path):
    inst = Instance(n=6, r=2, p=HALF, predicate=EdgePredicate.min_edges(8),
                    family=FAM_K3, system=SYS6,
                    params=LemmaParameters(nu=Fraction(1, 4), m=3))
    obj = instance_to_json_obj(inst)
    json.dumps(obj)
    back = instance_from_json_obj(obj)
    assert back.n == 6 and back.p == HALF
    assert back.system == SYS6
    assert back.params == inst.params
    assert back.family.members == FAM_K3.members
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    assert load_instance(str(path)).system == SYS6
    with pytest.raises(ParseError):
        instance_from_json_obj({"n": 6})

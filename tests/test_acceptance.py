"""Acceptance gate: the twelve headline checks, one pass/fail line each.

Each criterion prints a single status line to the real stdout (bypassing
capture) so a bare pytest run shows the full scoreboard.  Runtime
budgets are asserted where stated.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from hlab.codec import decode_graph6, encode_graph6
from hlab.extremal import exstar, tau, witness_check
from hlab.family import count_induced, normalize_family
from hlab.hypergraph import (RUniformGraph, canonical_code, complete_graph,
                             graph_from_edges, permute_graph)
from hlab.measure import (EdgePredicate, cn_sequence, exact_measure,
                          fraction_str, mc_measure)
from hlab.rng import Rng
from hlab.steiner import (SteinerSystem, greedy_system, maximality_report,
                          verify_system)
from hlab.supersat import (Instance, counting_floor, partition_table,
                           projection_bound_check, tail_mass, x_set)

from oracles import (exstar_exhaustive, max_packing, random_below,
                     random_graph, triangle_free_measure)

HALF = Fraction(1, 2)
K3 = complete_graph(3, 2)
C4 = graph_from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
FAM_K3 = normalize_family([K3])
FORB_K3 = EdgePredicate.forb(FAM_K3)
SYS6 = SteinerSystem(r=2, m=3, n=6,
                     blocks=((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)))
MIN8 = EdgePredicate.min_edges(8)


def _instance(A, sys=None):
    """Class A on n = 6 vertices at p = 1/2, the family K3, over sys."""
    return Instance(n=6, r=2, p=HALF, predicate=A, family=FAM_K3, system=sys)


_EMIT = print


@pytest.fixture(autouse=True)
def _scoreboard(request):
    """Route criterion lines past pytest's capture to the terminal."""
    global _EMIT
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(line):
        if capman is None:
            print(line, flush=True)
        else:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)

    _EMIT = emit
    yield
    _EMIT = print


@contextmanager
def criterion(num: int, limit: float | None, detail: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        _line(num, "FAIL", elapsed, detail)
        raise
    elapsed = time.perf_counter() - started
    if limit is not None and elapsed >= limit:
        _line(num, "FAIL", elapsed, f"{detail}; over {limit:g}s budget")
        raise AssertionError(
            f"criterion {num} took {elapsed:.2f}s, budget {limit:g}s")
    _line(num, "PASS", elapsed, detail)


def _line(num: int, status: str, elapsed: float, detail: str) -> None:
    _EMIT(f"criterion {num:02d}: {status} ({elapsed:.2f}s) {detail}")


def test_criterion_01_partition_parameter():
    with criterion(1, 1.0, "tau(C4) = 2, so the p = 1/2 prediction 1/tau "
                           "is 1/2"):
        assert tau(C4).t == 2


def test_criterion_02_exact_triangle_free_measures():
    with criterion(2, 1.0, "mu_3 = 7/8 and mu_4 = 41/64, against "
                           "inclusion-exclusion"):
        mu3 = exact_measure(3, 2, HALF, FORB_K3).value
        mu4 = exact_measure(4, 2, HALF, FORB_K3).value
        assert mu3 == Fraction(7, 8) == triangle_free_measure(3, HALF)
        assert mu4 == Fraction(41, 64) == triangle_free_measure(4, HALF)


def test_criterion_03_entropy_sequence_increasing():
    with criterion(3, 60.0, "c_n strictly increasing on n = 2..7, "
                            "worker-count independent"):
        pts = cn_sequence(FAM_K3, HALF, range(2, 8), workers=1)
        for a, b in zip(pts, pts[1:]):
            assert a.c_n < b.c_n
        redo = cn_sequence(FAM_K3, HALF, range(2, 8), workers=8)
        for a, b in zip(pts, redo):
            assert a.mu == b.mu
            assert a.c_n == b.c_n


def test_criterion_04_monte_carlo_calibration():
    with criterion(4, 30.0, "95% CIs over 200 seeds cover the exact "
                            "value at least 180 times"):
        exact = exact_measure(5, 2, HALF, FORB_K3).value
        covered = sum(
            1 for seed in range(200)
            if (res := mc_measure(5, 2, HALF, FORB_K3, samples=10_000,
                                  seed=seed, ci_level=0.95)).ci_low
            <= exact <= res.ci_high)
        assert covered >= 180, f"only {covered}/200 intervals covered"


def test_criterion_05_steiner_bounds_and_packing():
    with criterion(5, 60.0, "1000 greedy (2,3,15) systems valid, d <= 35, "
                            "maximal; best of 10^4 seeds hits d = 7 on "
                            "(2,3,7)"):
        for seed in range(1000):
            sys_ = greedy_system(2, 3, 15, seed=seed)
            assert verify_system(2, 3, 15, sys_.blocks).valid
            assert sys_.d <= 35
            assert maximality_report(sys_).maximal
        best = max(greedy_system(2, 3, 7, seed=s).d for s in range(10_000))
        assert max_packing(2, 3, 7) == 7
        assert best == 7


def test_criterion_06_partition_identity():
    with criterion(6, 10.0, "sum_S |S| mu(A_S) = sum_i theta_i and "
                            "sum_S mu(A_S) = mu(A) on the fixed n=6 "
                            "instance"):
        table = partition_table(_instance(MIN8, SYS6))
        assert table.weighted_sum == table.theta_sum
        assert sum(table.cells.values(), Fraction(0)) == table.total
        assert table.total == exact_measure(6, 2, HALF, MIN8).value


def test_criterion_07_projection_bound():
    with criterion(7, None, "mu(A_S) <= (7/8)^(4-|S|) cell-wise; "
                            "independence equality at A = full space"):
        mu_mB = Fraction(7, 8)
        table = partition_table(_instance(MIN8, SYS6))
        assert projection_bound_check(table, mu_mB).ok
        free = partition_table(_instance(EdgePredicate.min_edges(0), SYS6))
        assert free.cells[0] == mu_mB ** 4


def test_criterion_08_tail_mass():
    with criterion(8, None, "endpoint identities and domination of the "
                            "true small-cell mass"):
        mu = Fraction(7, 8)
        assert tail_mass(0, 4, mu) == mu ** 4
        assert tail_mass(1, 4, mu) == (1 + mu) ** 4
        table = partition_table(_instance(MIN8, SYS6))
        bound = tail_mass(HALF, 4, mu, table=table)
        assert bound >= table.small_mass(2)


def test_criterion_09_counting_floor_grid():
    with criterion(9, 5.0, "ratio >= floor on the whole n >= 2t grid "
                           "with t <= m <= 8, n <= 40"):
        checked = 0
        for t in range(1, 9):
            for m in range(t, 9):
                for n in range(max(2 * t, m), 41):
                    res = counting_floor(n, m, t, Fraction(2, 3),
                                         Fraction(1, 2))
                    assert res.ok and res.proviso_met, (n, m, t)
                    checked += 1
        assert checked > 0
        boundary = counting_floor(16, 8, 8, 1, 1)
        assert boundary.ok and boundary.proviso_met


def test_criterion_10_x_set():
    with criterion(10, None, "A = {K6} gives |X| = 20 with 20 distinct "
                             "copies; A = Forb(K3) gives |X| = 0"):
        full = (1 << comb(6, 2)) - 1
        rep = x_set(_instance(EdgePredicate.explicit([full])), 3, HALF)
        assert rep.x_size == 20
        assert rep.distinct_copies == 20
        empty = x_set(_instance(FORB_K3), 3, Fraction(1, 4))
        assert empty.x_size == 0


def test_criterion_11_exstar_with_witnesses():
    with criterion(11, 120.0, "ex*(n, K3) = 2, 4, 6 for n = 3, 4, 5 with "
                              "checkable witnesses, against the full "
                              "(E, E0) scan"):
        for n, expect in ((3, 2), (4, 4), (5, 6)):
            res = exstar(n, K3)
            assert res.value == expect
            assert res.value == exstar_exhaustive(n, K3)
            assert witness_check(n, K3, res.edges, res.base_edges).ok


MASTER_SEED = 20240801


def _property_bundle(workers: int) -> str:
    """Randomized-instance sweep of the module invariants, rendered to a
    canonical JSON string for byte-comparison across runs and workers."""
    rng = Rng(MASTER_SEED)
    out: dict = {"master_seed": MASTER_SEED, "workers_independent": []}

    codes = []
    for _ in range(20):
        n = 2 + random_below(rng, 4)
        G = random_graph(n, 2, Fraction(1, 2), rng)
        sigma = list(range(n))
        rng.shuffle(sigma)
        H = permute_graph(G, tuple(sigma))
        assert canonical_code(G) == canonical_code(H)
        assert decode_graph6(encode_graph6(G)) == G
        assert count_induced(G, FAM_K3) == count_induced(H, FAM_K3)
        codes.append(encode_graph6(G))
    out["graphs"] = codes

    measures = []
    for _ in range(6):
        n = 3 + random_below(rng, 3)
        k = random_below(rng, comb(n, 2) + 1)
        pred = EdgePredicate.min_edges(k)
        mu = exact_measure(n, 2, Fraction(1, 3), pred, workers=workers).value
        comp = exact_measure(n, 2, Fraction(1, 3),
                             EdgePredicate.complement(pred),
                             workers=workers).value
        assert mu + comp == 1
        measures.append({"n": n, "k": k, "mu": fraction_str(mu)})
    out["measures"] = measures

    systems = []
    for _ in range(8):
        n = 7 + random_below(rng, 6)
        seed = random_below(rng, 1 << 32)
        sys_ = greedy_system(2, 3, n, seed=seed)
        assert verify_system(2, 3, n, sys_.blocks).valid
        assert maximality_report(sys_).maximal
        systems.append({"n": n, "seed": seed, "d": sys_.d})
    out["systems"] = systems

    tables = []
    for _ in range(4):
        seed = random_below(rng, 1 << 32)
        sys_ = greedy_system(2, 3, 6, seed=seed)
        kmin = random_below(rng, 10)
        pred = EdgePredicate.min_edges(kmin)
        table = partition_table(_instance(pred, sys_), workers=workers)
        mu_mB = exact_measure(3, 2, HALF, FORB_K3).value
        assert table.weighted_sum == table.theta_sum
        assert projection_bound_check(table, mu_mB).ok
        assert tail_mass(HALF, table.d, mu_mB, table=table) >= 0
        tables.append({"seed": seed, "kmin": kmin, "d": table.d,
                       "total": fraction_str(table.total)})
    out["partitions"] = tables

    taus = []
    for _ in range(10):
        n = 2 + random_below(rng, 5)
        F = random_graph(n, 2, Fraction(1, 2), rng)
        sigma = list(range(n))
        rng.shuffle(sigma)
        t = tau(F).t
        assert t == tau(permute_graph(F, tuple(sigma))).t
        taus.append(t)
    out["tau"] = taus

    xres = x_set(_instance(MIN8), 3, Fraction(1, 8), workers=workers)
    assert xres.averaging_ok
    out["xset"] = {"x_size": xres.x_size,
                   "best_count": xres.best_mset_count,
                   "delta_floor": fraction_str(xres.delta_floor)}

    mc = mc_measure(5, 2, HALF, FORB_K3, samples=20_000, seed=MASTER_SEED,
                    workers=workers)
    out["mc"] = {"hits": mc.hits, "estimate": f"{mc.value:.15g}"}

    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def test_criterion_12_property_harness_reproducible():
    with criterion(12, None, "fixed-seed property sweep byte-identical "
                             "across runs and worker counts"):
        first = _property_bundle(workers=1)
        second = _property_bundle(workers=1)
        wide = _property_bundle(workers=4)
        assert first == second
        assert first == wide

import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hlab.steiner as steiner
from hlab.codec import load_json
from hlab.errors import (ConstructionError, ParameterError, ParseError,
                         SizeLimitError)
from hlab.hypergraph import induced_rank_table, subsets_colex
from hlab.steiner import (DEFAULT_BITE, DEFAULT_ROUNDS, SteinerSystem,
                          greedy_system, load_system_fields,
                          maximality_report, save_system, search_system,
                          system_from_json_obj, system_to_json_obj,
                          verify_system)

from oracles import max_packing, packing_scalar, uncovered_rsets

FANO = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6),
        (2, 4, 5))


def nibble(r, m, n, seed, bite=DEFAULT_BITE, rounds=DEFAULT_ROUNDS):
    """The nibble system of one seed."""
    return search_system(r, m, n, seed, 1, algo="nibble", bite=bite,
                         rounds=rounds).system


@st.composite
def parameters(draw):
    r = draw(st.integers(1, 3))
    m = draw(st.integers(r + 1, r + 3))
    n = draw(st.integers(m, m + 5))
    return r, m, n


def test_verify_fano():
    report = verify_system(2, 3, 7, FANO)
    assert report.valid
    assert report.d == 7
    assert report.covered == 21
    assert report.uncovered_fraction == 0
    assert report.violations == ()


def test_verify_detects_double_cover():
    report = verify_system(2, 3, 4, [(0, 1, 2), (0, 1, 3)])
    assert not report.valid
    assert (0, 1) in report.violations


def test_verify_empty():
    report = verify_system(2, 3, 7, [])
    assert report.valid
    assert report.d == 0
    assert report.uncovered_fraction == 1


def test_verify_structural_issues():
    report = verify_system(2, 3, 5, [(0, 1), (2, 1, 0), (0, 1, 9),
                                     (0, 1, 2.5)])
    assert not report.valid
    assert len(report.structural) == 4


def test_verify_at_the_block_layout_limit():
    # One (11,21,21) block: C(21,11) x 11 = 3,879,876 entries, just under
    # 2^22; its 352,716 r-subsets are counted as int64 ranks, not tuples.
    tracemalloc.start()
    try:
        report = verify_system(11, 21, 21, [tuple(range(21))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid
    assert report.covered == comb(21, 11)
    assert report.uncovered_fraction == 0
    assert peak < 40 << 20


def test_verify_labels_past_int64():
    # Ranks are taken over the used vertices, so labels past 2^63 and
    # 25 disjoint (11,12) blocks, whose 300 vertices give C(300,11) > 2^63
    # ranks, are counted exactly.
    big = 2**70
    report = verify_system(2, 3, big, [(0, 1, 2), (0, 1, big - 1),
                                       (5, 2**65, big - 1)])
    assert report.violations == ((0, 1),)
    assert report.covered == 8
    assert report.uncovered_fraction == Fraction(comb(big, 2) - 8, comb(big, 2))
    report = verify_system(2, 3, 2**64, [(0, 1, 2**63), (0, 1, 2**63 + 1),
                                         (3, 2**63, 2**63 + 1)])
    assert report.violations == ((0, 1),)
    assert report.covered == 8
    blocks = [tuple(range(12 * i, 12 * i + 12)) for i in range(25)]
    report = verify_system(11, 12, 300, blocks + blocks[-1:])
    assert report.covered == 25 * 12
    assert report.violations == tuple(combinations(blocks[-1], 11))


@st.composite
def raw_systems(draw):
    """(r, m, n, blocks): sorted m-subsets that overlap and repeat, mixed
    with lists of m-1..m+1 vertices from -1..n, most of them malformed."""
    r, m, n = draw(parameters())
    sorted_block = st.lists(st.integers(0, n - 1), min_size=m, max_size=m,
                            unique=True).map(sorted)
    any_block = st.lists(st.integers(-1, n), min_size=m - 1, max_size=m + 1)
    blocks = draw(st.lists(st.one_of(sorted_block, sorted_block, any_block),
                           max_size=6))
    if blocks:
        blocks += draw(st.lists(st.sampled_from(blocks), max_size=2))
    return r, m, n, [tuple(b) for b in blocks]


def well_formed(m, n, b):
    return (len(b) == len(set(b)) == m and list(b) == sorted(b)
            and 0 <= b[0] and b[-1] < n)


@given(raw_systems())
def test_verify_matches_set_count(case):
    r, m, n, blocks = case
    good = [b for b in blocks if well_formed(m, n, b)]
    bad = [b for b in blocks if not well_formed(m, n, b)]
    rsets = [set(combinations(b, r)) for b in good]
    twice = set().union(*(a & b for i, a in enumerate(rsets)
                          for b in rsets[i + 1:]))
    report = verify_system(r, m, n, blocks)
    assert report.d == len(blocks)
    assert report.covered == comb(n, r) - len(uncovered_rsets(r, n, good))
    assert report.violations == tuple(sorted(twice))
    assert len(report.structural) == len(bad)
    assert all(msg.startswith(f"block {b} ")
               for b, msg in zip(bad, report.structural))
    assert report.valid == (not twice and not bad)


@given(raw_systems())
def test_exhaustive_maximality_matches_first_free_row(case):
    r, m, n, blocks = case
    kept, used = [], set()
    for b in blocks:
        if well_formed(m, n, b) and used.isdisjoint(combinations(b, r)):
            kept.append(b)
            used.update(combinations(b, r))
    sys = SteinerSystem(r=r, m=m, n=n, blocks=tuple(sorted(kept)))
    free = set(uncovered_rsets(r, n, kept))
    colex = sorted(combinations(range(n), m), key=lambda s: s[::-1])
    first = next((i for i, d in enumerate(colex)
                  if free.issuperset(combinations(d, r))), None)
    report = maximality_report(sys)
    if first is None:
        assert (report.maximal, report.checked, report.addable) == (
            True, len(colex), None)
    else:
        assert (report.maximal, report.checked, report.addable) == (
            False, first + 1, colex[first])


def test_maximality_refuses_oversized_table():
    # C(230,3) x C(3,2) = 6,004,380 ranks, above the packing limit of
    # 2^22: refused before any table is built (ranking every row took
    # 230 MiB).
    sys = SteinerSystem(2, 3, 230, ((0, 1, 2),))
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="packing table"):
            maximality_report(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_system_rejects_invalid():
    with pytest.raises(ConstructionError):
        SteinerSystem(r=2, m=3, n=4, blocks=((0, 1, 2), (0, 1, 3)))
    with pytest.raises(ParameterError):
        SteinerSystem(r=3, m=3, n=5, blocks=())
    with pytest.raises(ParameterError, match="r >= 1"):
        SteinerSystem(r=0, m=1, n=2, blocks=((0,),))


def test_system_derived_fields():
    sys = SteinerSystem(r=2, m=3, n=7, blocks=FANO)
    assert sys.d == 7
    assert sys.covered == 21
    assert sys.uncovered_fraction == 0
    assert uncovered_rsets(sys.r, sys.n, sys.blocks) == []


def test_greedy_determinism():
    a = greedy_system(2, 3, 9, seed=5)
    b = greedy_system(2, 3, 9, seed=5)
    assert a == b
    c = greedy_system(2, 3, 9, seed=6)
    assert a != c


def test_greedy_four_points_always_one_block():
    assert max_packing(2, 3, 4) == 1
    for seed in range(25):
        assert greedy_system(2, 3, 4, seed=seed).d == 1


def test_greedy_reaches_fano_size():
    assert max_packing(2, 3, 7) == 7
    best = max(greedy_system(2, 3, 7, seed=s).d for s in range(300))
    assert best == 7


def test_greedy_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        greedy_system(3, 3, 5, seed=0)
    with pytest.raises(ParameterError):
        greedy_system(2, 5, 4, seed=0)
    with pytest.raises(ParameterError):
        greedy_system(0, 2, 4, seed=0)


@given(parameters(), st.integers(0, 2 ** 32))
def test_constructed_systems_valid(params, seed):
    r, m, n = params
    sys = greedy_system(r, m, n, seed=seed)
    report = verify_system(r, m, n, sys.blocks)
    assert report.valid
    assert report.covered == sys.d * comb(m, r)
    assert sys.d <= comb(n, r) // comb(m, r)
    assert maximality_report(sys).maximal


def test_nibble_valid_and_maximal():
    sys = nibble(2, 3, 20, seed=3)
    assert verify_system(2, 3, 20, sys.blocks).valid
    assert maximality_report(sys).maximal
    tri = nibble(3, 4, 12, seed=1, bite=Fraction(1, 5), rounds=4)
    assert verify_system(3, 4, 12, tri.blocks).valid
    assert maximality_report(tri).maximal


def test_nibble_zero_rounds_is_greedy():
    for seed in (0, 1, 9):
        assert (nibble(2, 3, 12, seed=seed, rounds=0)
                == greedy_system(2, 3, 12, seed=seed))


def test_greedy_packing_takes_no_threshold(monkeypatch):
    # With no nibble round, no draw is compared with a Bernoulli threshold.
    import hlab.steiner

    greedy = greedy_system(2, 3, 9, seed=3)
    bitten = nibble(2, 3, 9, seed=3, rounds=2)

    def refuse(p):
        raise AssertionError("threshold built for a greedy packing")

    monkeypatch.setattr(hlab.steiner, "bernoulli_threshold", refuse)
    assert greedy_system(2, 3, 9, seed=3) == greedy
    assert nibble(2, 3, 9, seed=3, rounds=0) == greedy
    with pytest.raises(AssertionError, match="threshold built"):
        nibble(2, 3, 9, seed=3, rounds=2)
    monkeypatch.undo()
    assert nibble(2, 3, 9, seed=3, rounds=2) == bitten


def test_nibble_determinism():
    a = nibble(2, 3, 15, seed=4, bite=Fraction(1, 8), rounds=6)
    b = nibble(2, 3, 15, seed=4, bite=Fraction(1, 8), rounds=6)
    assert a == b


def test_nibble_parameter_validation():
    with pytest.raises(ParameterError):
        nibble(2, 3, 9, seed=0, bite=Fraction(0))
    with pytest.raises(ParameterError):
        nibble(2, 3, 9, seed=0, bite=Fraction(7, 5))
    with pytest.raises(ParameterError):
        nibble(2, 3, 9, seed=0, rounds=-1)


@pytest.mark.parametrize("algo", ["greedy", "nibble"])
def test_search_keeps_first_seed_with_largest_d(algo):
    build = greedy_system if algo == "greedy" else nibble
    found = search_system(2, 3, 9, seed=5, restarts=40, algo=algo)
    systems = [build(2, 3, 9, seed=s) for s in range(5, 45)]
    assert found.sizes == tuple(s.d for s in systems)
    best = max(found.sizes)
    assert found.seed == 5 + found.sizes.index(best)
    assert found.system == systems[found.seed - 5]


@pytest.mark.parametrize("n, seed, algo, bite, rounds", [
    (7, -40, "greedy", Fraction(1, 10), 0),
    (7, 2**64 - 300, "nibble", Fraction(1, 5), 3),
])
def test_search_matches_per_seed_oracle(n, seed, algo, bite, rounds):
    # Enough restarts for two whole chunks and part of a third; the seeds
    # cross 0 or 2^64, where they are masked as Rng masks them.  The
    # greedy search runs its whole chunks in lockstep and its last five
    # seeds, below _LOCKSTEP_SEEDS, one by one.
    per_seed = (rounds + 1) * comb(n, 3)
    restarts = 2 * (steiner._CHUNK_DRAWS // per_seed) + 5
    found = search_system(2, 3, n, seed=seed, restarts=restarts, algo=algo,
                          bite=bite, rounds=rounds)
    want = [packing_scalar(2, 3, n, s, bite=bite, rounds=rounds)
            for s in range(seed, seed + restarts)]
    sizes = tuple(map(len, want))
    assert found.sizes == sizes
    assert found.seed == seed + sizes.index(max(sizes))
    assert found.system.blocks == want[found.seed - seed]


def test_search_winner_past_a_chunk_boundary(monkeypatch):
    # Chunks of 100 seeds, run in lockstep but the last 50; from seed 148
    # the first (2,3,9) system with d = 12 is the 111th.
    monkeypatch.setattr(steiner, "_CHUNK_DRAWS", 100 * comb(9, 3))
    found = search_system(2, 3, 9, seed=148, restarts=250)
    want = [packing_scalar(2, 3, 9, s) for s in range(148, 398)]
    sizes = tuple(map(len, want))
    assert found.sizes == sizes
    assert found.seed == 148 + 110 == 148 + sizes.index(12)
    assert found.system.blocks == want[110]


@given(parameters(), st.integers(0, 2**64), st.integers(1, 5))
def test_lockstep_matches_per_seed_oracle(params, seed, restarts):
    # Every chunk in lockstep, m = n (one candidate, no swap) and r = 1
    # included.
    r, m, n = params
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(steiner, "_LOCKSTEP_SEEDS", 1)
        found = search_system(r, m, n, seed=seed, restarts=restarts)
    want = [packing_scalar(r, m, n, s) for s in range(seed, seed + restarts)]
    sizes = tuple(map(len, want))
    assert found.sizes == sizes
    assert found.system.blocks == want[found.seed - seed]
    assert found.seed == seed + sizes.index(max(sizes))


def test_lockstep_only_for_large_greedy_chunks(monkeypatch):
    # A greedy chunk of _LOCKSTEP_SEEDS or more seeds runs in lockstep and
    # scans its winner alone; a smaller one, a single packing and the
    # nibble scan every seed alone.
    calls = []
    for name in ("_lockstep", "_scan"):
        real = getattr(steiner, name)
        monkeypatch.setattr(steiner, name, lambda *a, _name=name, _real=real:
                            calls.append(_name) or _real(*a))
    lots = steiner._LOCKSTEP_SEEDS
    search_system(2, 3, 7, seed=0, restarts=lots)
    assert calls == ["_lockstep", "_scan"]
    calls.clear()
    search_system(2, 3, 7, seed=0, restarts=lots - 1)
    assert calls == ["_scan"] * (lots - 1)
    calls.clear()
    greedy_system(2, 3, 7, seed=0)
    assert calls == ["_scan"]
    calls.clear()
    search_system(2, 3, 7, seed=0, restarts=lots, algo="nibble")
    assert calls == ["_scan"] * lots


def test_lockstep_size_is_checked_against_the_winners_scan(monkeypatch):
    real = steiner._lockstep

    def inflated(*args):
        sizes, order = real(*args)
        return [d + 1 for d in sizes], order

    monkeypatch.setattr(steiner, "_lockstep", inflated)
    with pytest.raises(ConstructionError, match="lockstep scan found d="):
        search_system(2, 3, 7, seed=0, restarts=steiner._LOCKSTEP_SEEDS)


def test_search_refuses_too_many_restarts(monkeypatch):
    # Refused before any table is built or any seed drawn.
    def unbuilt(*args):
        raise AssertionError(f"table built for {args}")

    monkeypatch.setattr(steiner, "subsets_colex", unbuilt)
    monkeypatch.setattr(steiner, "seed_keys", unbuilt)
    with pytest.raises(ParameterError, match="restarts must lie in"):
        search_system(2, 3, 7, seed=0, restarts=steiner.MAX_RESTARTS + 1)


def test_single_systems_match_per_seed_oracle():
    # the seeds cross 0 and 2^64, where they are masked as Rng masks them
    for seed in (5, -1, 2**70):
        assert (greedy_system(2, 3, 9, seed=seed).blocks
                == packing_scalar(2, 3, 9, seed))
        assert (nibble(3, 4, 8, seed=seed, bite=Fraction(1, 4),
                       rounds=2).blocks
                == packing_scalar(3, 4, 8, seed, 0, Fraction(1, 4), 2))
        assert (nibble(2, 3, 12, seed=seed).blocks
                == packing_scalar(2, 3, 12, seed, rounds=10))


def test_search_parameter_validation():
    with pytest.raises(ParameterError):
        search_system(2, 3, 9, seed=0, restarts=0)
    with pytest.raises(ParameterError):
        search_system(2, 3, 9, seed=0, restarts=5, algo="annealing")
    with pytest.raises(ParameterError):
        search_system(3, 3, 9, seed=0, restarts=5)
    with pytest.raises(ParameterError):
        search_system(2, 3, 9, seed=0, restarts=5, algo="nibble", bite=2)
    # greedy ignores the nibble knobs
    assert search_system(2, 3, 9, seed=0, restarts=5, bite=2).sizes


def test_search_keeps_no_rank_rows():
    # A packing's tuple rows of the rank table, C(60,3) x 3 ranks, live
    # only for its search; the cached tables they come from are warm.
    induced_rank_table(60, 3, 2)
    subsets_colex(60, 3)
    tracemalloc.start()
    try:
        found = search_system(2, 3, 60, 0, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert found.system.d > 0
    assert held < 1 << 20


def test_table_size_limit_before_any_table(monkeypatch):
    # (2,3,300) needs 13,365,300 packing ranks and a 40-vertex block of a
    # 20-graph C(40,20) r-subsets: both are refused by their sizes alone.
    def unbuilt(*args):
        raise AssertionError(f"table built for {args}")

    monkeypatch.setattr(steiner, "subsets_colex", unbuilt)
    monkeypatch.setattr(steiner, "induced_rank_table", unbuilt)
    for build in (lambda: greedy_system(2, 3, 300, seed=0),
                  lambda: nibble(2, 3, 300, seed=0),
                  lambda: search_system(2, 3, 300, seed=0, restarts=1)):
        with pytest.raises(SizeLimitError, match="packing table of "
                           r"C\(300,3\) x 3 = 13365300 entries"):
            build()
    with pytest.raises(SizeLimitError, match=r"block layout of C\(40,20\)"):
        SteinerSystem(r=20, m=40, n=40, blocks=(tuple(range(40)),))
    # the limit holds 2^22 entries: C(2048,2) x 2 = 4,192,256 block
    # entries and C(200,3) x 3 = 3,940,200 packing ranks pass
    steiner._check_params(2, 2048, 2048)
    steiner._check_table("packing table", 200, 3, 3)


def uncovered_pair_triangles(sys: SteinerSystem) -> int:
    pairs = uncovered_rsets(2, sys.n, sys.blocks)
    adj = {v: set() for v in range(sys.n)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return sum(1 for a, b in pairs for c in adj[a] & adj[b] if c > b)


def test_maximality_forces_triangle_free_uncovered_graph():
    # Any uncovered triangle would itself be an addable block.
    for n, seed in ((10, 0), (25, 1), (60, 2)):
        sys = greedy_system(2, 3, n, seed=seed)
        assert uncovered_pair_triangles(sys) == 0
    nib = nibble(2, 3, 40, seed=5)
    assert uncovered_pair_triangles(nib) == 0


def test_nibble_coverage_bound_from_maximality():
    # Triangle-free uncovered graph has at most n^2/4 of the C(n,2) pairs.
    n = 100
    sys = nibble(2, 3, n, seed=0)
    assert sys.uncovered_fraction <= Fraction(n * n // 4, comb(n, 2))


def test_permute_relabels_violations():
    raw = [(0, 1, 2), (0, 1, 3)]
    sigma = (3, 2, 1, 0)
    mapped = [tuple(sorted(sigma[v] for v in b)) for b in raw]
    a = verify_system(2, 3, 4, raw)
    b = verify_system(2, 3, 4, mapped)
    relabeled = {tuple(sorted(sigma[v] for v in s)) for s in a.violations}
    assert relabeled == set(b.violations)


def test_maximality_report_finds_addable():
    sys = SteinerSystem(r=2, m=3, n=7, blocks=((0, 1, 2),))
    report = maximality_report(sys)
    assert report.maximal is False
    assert verify_system(2, 3, 7, sys.blocks + (report.addable,)).valid


def test_json_round_trip(tmp_path):
    sys = greedy_system(2, 3, 9, seed=7)
    obj = system_to_json_obj(sys)
    assert system_from_json_obj(obj) == sys
    path = tmp_path / "sys.json"
    save_system(sys, str(path))
    assert system_from_json_obj(load_json(str(path))) == sys


def test_json_bad_inputs(tmp_path):
    with pytest.raises(ParseError):
        system_from_json_obj({"r": 2, "m": 3})
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_system_fields(str(path))


@pytest.mark.parametrize("obj", [
    {"r": 2, "m": 3, "n": 4, "blocks": [[0, 1, 2.5]]},
    {"r": 2.0, "m": 3, "n": 4, "blocks": []},
    {"r": 2, "m": 3, "n": "4", "blocks": []},
])
def test_json_fields_must_be_integers(obj):
    with pytest.raises(ParseError, match="bad system object"):
        system_from_json_obj(obj)

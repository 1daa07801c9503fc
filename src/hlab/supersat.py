"""Exact verification of the partition-lemma and counting pipeline.

Given a class A (as an edge predicate), a forbidden family, and a
partial Steiner system with blocks D_1..D_d, this module computes the
per-block measures theta_i, the threshold index set I, the partition of
A by containment pattern S, the projection and tail bounds, the set X
of dense m-subsets, and the final counting floor.  All quantities are
exact rationals from one enumeration of the masks of A (the measure
module's level walk, vertex by vertex for a hereditary A); every
identity the arguments rely on is recomputed through two separate code
paths and compared for exact equality.

theta_D depends only on the orbit of D under the vertex permutations
that fix A (measure._vertex_cells), so each scan reduces one theta
histogram per orbit and copies its value to the rest of the orbit; the
averaging and partition identities, which read every column, check
that grouping too.  For an A that every vertex permutation fixes, all
theta are equal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, perm

import numpy as np

from .codec import _json_fraction, _json_int, load_json
from .errors import (ConstructionError, FeasibilityError, InputError,
                     ParameterError, ParseError, SizeLimitError)
from .family import ForbiddenFamily, _contains_rows, count_induced
from .hypergraph import RUniformGraph, subsets_colex
from .measure import (MAX_RESULT_BITS, EdgePredicate, _children, _levels,
                      _validate_p, _vertex_cells, _walk, check_exact_feasible,
                      exact_measure, family_from_json_obj, family_to_json_obj,
                      fraction_str, predicate_from_json_obj,
                      predicate_to_json_obj, value_from_histogram)
from .steiner import SteinerSystem, system_from_json_obj, system_to_json_obj

# Entries of partition_table's (pattern, edges) count table, 2^d (C(n,r) + 1):
# the largest that a mask space within HARD_EXACT_CAP_BITS needs, d = 15
# disjoint pairs at r = 1, n = 30.
MAX_PARTITION_ENTRIES = 31 << 15


def _check_result_bits(what: str, bits: int) -> None:
    if bits > MAX_RESULT_BITS:
        raise SizeLimitError(f"{what} of about {bits} bits exceeds the "
                             f"limit of {MAX_RESULT_BITS} bits")


@dataclass(frozen=True)
class LemmaParameters:
    """Knobs of the partition lemma; gamma defaults to nu/4."""

    nu: Fraction
    gamma: Fraction | None = None
    m: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "nu", Fraction(self.nu))
        gamma = self.nu / 4 if self.gamma is None else Fraction(self.gamma)
        object.__setattr__(self, "gamma", gamma)
        for name in ("nu", "gamma"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ParameterError(f"{name} must lie in (0, 1), got {v}")
        if self.m is not None and self.m < 2:
            raise ParameterError(f"block order m must be >= 2, got {self.m}")


@dataclass(frozen=True)
class Instance:
    """A lemma instance: the space (n, r, p), the class A, the family
    and, when given, the system and the knobs.  Construction checks that
    they share the space: p in [0, 1], an r-uniform family and system, a
    system on n vertices, and params.m, when given, its block order."""

    n: int
    r: int
    p: Fraction
    predicate: EdgePredicate
    family: ForbiddenFamily
    system: SteinerSystem | None = None
    params: LemmaParameters | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", _validate_p(self.p))
        sys, m = self.system, self.params and self.params.m
        if self.family.r != self.r:
            raise ParameterError(f"uniformity mismatch: family r="
                                 f"{self.family.r}, instance r={self.r}")
        if sys is not None and (sys.r, sys.n) != (self.r, self.n):
            raise ParameterError(f"system on (r={sys.r}, n={sys.n}), "
                                 f"instance on (r={self.r}, n={self.n})")
        if sys is not None and m not in (None, sys.m):
            raise ParameterError(
                f"params.m={m} disagrees with system block order {sys.m}")

    def require(self, field: str):
        """The optional entry `field`; InputError when it is absent."""
        value = getattr(self, field)
        if value is None:
            raise InputError(f"instance lacks the {field!r} entry")
        return value


def _scan(inst: Instance, nbits: int, vsets, workers: int, per_block):
    """Yield per_block(masks, hist, cols, by_edges) for every block of the
    masks of the instance's class A.

    The blocks come from one walk of A's levels and are reduced on the
    workers.  Each block's masks are sorted by edge count, so the masks
    with e edges form one run: a full scan's survivors arrive sorted, with
    their edge histogram, and are compressed once from the walk's column
    (measure._walk), or passed on as they are when the block keeps them
    all, so masks is only valid until per_block returns; the survivors of
    a vertex walk's last level are sorted here, once.  hist is the
    block's edge histogram, nbits + 1 int64 entries, and cols[i], in the
    order of masks, whether some member of the family is induced inside
    vsets[i].  by_edges(x) sums x, one entry per mask, over each run: the
    edge histogram of x, from one np.add.reduceat.
    """
    n, r = inst.n, inst.r
    rows = _contains_rows(n, r, inst.family, vsets)
    levels = _levels(inst.predicate, n, r)  # after rows: family errors first
    last = len(levels) - 1

    def block(masks, hist):
        runs = np.flatnonzero(hist)
        starts = (np.cumsum(hist) - hist)[runs]

        def by_edges(x):
            out = np.zeros(nbits + 1, dtype=np.int64)
            if runs.size:
                out[runs] = np.add.reduceat(x, starts, dtype=np.int64)
            return out
        return per_block(masks, hist, rows(masks), by_edges)

    if not last:
        def one(k, masks, kept, hist):
            # a block that keeps every mask is passed on without a copy
            whole = hist.sum() == masks.shape[0]
            return block(masks if whole else masks[kept], hist)
    else:
        def one(k, parents, allowed, width):
            if k == last:  # the block comes parent by parent
                masks = _children(parents, allowed, levels[k].lo, width)
                pops = np.bitwise_count(masks)
                return block(masks[np.argsort(pops, kind="stable")],
                             np.bincount(pops, minlength=nbits + 1))

    return (part for k, part in _walk(levels, workers, one) if k == last)


def _orbits(inst: Instance, vsets) -> tuple:
    """(orbit, reps): vsets grouped into orbits of the vertex permutations
    that fix A, by their count of vertices in each cell of
    measure._vertex_cells.  orbit[i] numbers the orbit of vsets[i], in
    order of first appearance, and reps[j] is the index of the first
    vertex set of orbit j, its representative.  theta is the same on a
    whole orbit, so the scans reduce it once per orbit."""
    cell = _vertex_cells(inst.predicate, inst.n)
    first: dict = {}
    orbit = np.array([first.setdefault(tuple(sorted(cell[v] for v in vset)),
                                       len(first)) for vset in vsets],
                     dtype=np.intp)
    return orbit, np.unique(orbit, return_index=True)[1].tolist()


def _spread(hists, orbit, p: Fraction) -> tuple:
    """(theta, total) from one theta histogram per orbit: theta[i] is the
    value of hists[orbit[i]], and total the value of the sum of the
    histograms over every vertex set, sum_i theta_i, taken as one dot
    product of the orbit sizes with hists."""
    values = [value_from_histogram(h.tolist(), p) for h in hists]
    sizes = np.bincount(orbit, minlength=len(values))
    return (tuple(values[j] for j in orbit.tolist()),
            value_from_histogram((sizes @ hists).tolist(), p))


def _theta_scan(inst: Instance, nbits: int, vsets, workers: int) -> tuple:
    """mu(A) and theta_S = mu(A and some member induced inside S) for
    each vertex set S, from one pass over the masks of A that runs the
    kernel rows of the orbits' representatives alone (see _orbits).  On
    each edge-sorted block, a representative's theta histogram is one
    by_edges reduction of its column."""
    orbit, reps = _orbits(inst, vsets)
    width = nbits + 1

    def one(masks, hist, cols, by_edges):
        hists = np.zeros((len(reps), width), dtype=np.int64)
        for j, col in enumerate(cols):
            hists[j] = by_edges(col)
        return hist, hists

    a_hist = np.zeros(width, dtype=np.int64)
    hists = np.zeros((len(reps), width), dtype=np.int64)
    for part_a, part_h in _scan(inst, nbits, [vsets[i] for i in reps],
                                workers, one):
        a_hist += part_a
        hists += part_h
    return (value_from_histogram(a_hist.tolist(), inst.p),
            _spread(hists, orbit, inst.p)[0])


def _x_scan(inst: Instance, nbits: int, dsets, workers: int) -> tuple:
    """One pass over the masks of A for x_set, which runs every column.

    Returns mu(A); theta_D for each vertex set D, with one column reduced
    per orbit (see _orbits); sum_D theta_D, from those orbit histograms;
    the measure of A weighted by the number of sets D that contain a
    member, from every column, a second route to that sum; and (count,
    mask) for the satisfying mask with the most such sets (smallest mask
    on ties), None when A is empty.  The weighted histogram counts the
    sets per mask first, then reduces those counts.
    """
    orbit, reps = _orbits(inst, dsets)
    width = nbits + 1
    per_mask = np.min_scalar_type(len(dsets))

    def one(masks, hist, cols, by_edges):
        hists = np.zeros((len(reps), width), dtype=np.int64)
        for j, i in enumerate(reps):
            hists[j] = by_edges(cols[i])
        mcount = cols.sum(axis=0, dtype=per_mask)
        best = None
        if mcount.size:
            top = mcount.max()
            best = (int(top), int(masks[mcount == top].min()))
        return hist, hists, by_edges(mcount), best

    a_hist = np.zeros(width, dtype=np.int64)
    hists = np.zeros((len(reps), width), dtype=np.int64)
    whist = np.zeros(width, dtype=np.int64)
    best = None
    for part_a, part_h, part_w, part_best in _scan(inst, nbits, dsets,
                                                   workers, one):
        a_hist += part_a
        hists += part_h
        whist += part_w
        if part_best is not None:
            if best is None or part_best[0] > best[0] or (
                    part_best[0] == best[0] and part_best[1] < best[1]):
                best = part_best

    def value(hist):
        return value_from_histogram(hist.tolist(), inst.p)

    theta, theta_sum = _spread(hists, orbit, inst.p)
    return value(a_hist), theta, theta_sum, value(whist), best


@dataclass(frozen=True)
class PartitionTable:
    """Cell measures mu(A_S), S = containment pattern, nonempty cells only.

    weighted_sum (cell route) and theta_sum (per-block measure route)
    are the two sides of the identity sum_S |S| mu(A_S) = sum_i theta_i;
    construction fails if they ever disagree.
    """

    d: int
    cells: dict
    total: Fraction
    weighted_sum: Fraction
    theta_sum: Fraction
    theta: tuple

    def small_mass(self, bound: int) -> Fraction:
        """Exact mass of cells with |S| <= bound."""
        return sum((v for s, v in self.cells.items() if s.bit_count() <= bound),
                   Fraction(0))


def partition_table(inst: Instance, cap_bits: int | None = None,
                    workers: int = 1) -> PartitionTable:
    """Exact mu(A_S) for every containment pattern S over the blocks of
    the instance's system.

    The same pass histograms, per orbit of blocks (see _orbits), the
    masks of A that satisfy EdgePredicate.contains(fam, within=block) for
    its representative: theta_i by the block route, computed apart from
    the pattern columns, so that the identity sum_S |S| mu(A_S) =
    sum_i theta_i compares two computations and checks the grouping.  The
    masks are counted by (pattern, edges) in one dense table of
    2^d (nbits + 1) entries, at most MAX_PARTITION_ENTRIES: each block
    adds one np.bincount of its keys.  Each nonempty cell, the total and
    the weighted sum is one integer dot product over weight_powers'
    single denominator.
    """
    sys = inst.require("system")
    n, r, d = inst.n, inst.r, sys.d
    width = comb(n, r) + 1
    if width << d > MAX_PARTITION_ENTRIES:
        raise FeasibilityError(
            f"partition table of 2^{d} patterns x {width} edge counts "
            f"exceeds the limit of {MAX_PARTITION_ENTRIES} entries")
    nbits = check_exact_feasible(n, r, cap_bits, sampled=False)
    blocks = sys.blocks
    patterns = np.min_scalar_type((1 << d) - 1)
    orbit, reps = _orbits(inst, blocks)
    # each representative's own kernel, as EdgePredicate.contains(fam,
    # within=b) runs it, built once for the scan
    in_block = [_contains_rows(n, r, inst.family, [blocks[i]]) for i in reps]
    edges = np.arange(width, dtype=np.min_scalar_type(nbits))

    def one(masks, hist, cols, by_edges):
        pattern = np.zeros(masks.shape, dtype=patterns)
        for i in range(d):
            pattern |= cols[i].astype(patterns) << patterns.type(i)
        hists = np.zeros((len(reps), width), dtype=np.int64)
        for j, run in enumerate(in_block):
            hists[j] = by_edges(run(masks)[0])
        pops = np.repeat(edges, hist)
        return np.bincount(pattern * np.intp(width) + pops), hists

    counts = np.zeros(width << d, dtype=np.int64)
    theta_hists = np.zeros((len(reps), width), dtype=np.int64)
    for part, hists in _scan(inst, nbits, blocks, workers, one):
        counts[:part.shape[0]] += part
        theta_hists += hists
    table = counts.reshape(1 << d, width)
    # one row of edge counts per nonempty cell, in pattern order
    filled = np.flatnonzero(table.any(axis=1))
    table = table[filled]
    sizes = np.bitwise_count(filled)

    def value(hist):
        return value_from_histogram(hist.tolist(), inst.p)

    cells = dict(zip(filled.tolist(), map(value, table)))
    total = value(table.sum(axis=0))
    weighted = value(sizes @ table)
    theta, theta_sum = _spread(theta_hists, orbit, inst.p)
    if weighted != theta_sum:
        raise ConstructionError(
            f"containment-pattern identity failed: cell route {weighted} "
            f"!= block route {theta_sum}")
    return PartitionTable(d=d, cells=cells, total=total, weighted_sum=weighted,
                          theta_sum=theta_sum, theta=theta)


@dataclass(frozen=True)
class ProjectionCell:
    pattern: int
    size: int
    mu: Fraction
    bound: Fraction
    ok: bool
    slack: Fraction


@dataclass(frozen=True)
class ProjectionReport:
    ok: bool
    cells: tuple


def projection_bound_check(table: PartitionTable, mu_mB) -> ProjectionReport:
    """Check mu(A_S) <= mu_mB^(d-|S|) cell-wise; blocks outside S are
    r-set disjoint, so the events 'block i avoids the family' are
    independent and their product measure dominates each cell."""
    mu_mB = Fraction(mu_mB)
    cells = []
    for s in sorted(table.cells):
        mu = table.cells[s]
        bound = mu_mB ** (table.d - s.bit_count())
        cells.append(ProjectionCell(pattern=s, size=s.bit_count(), mu=mu,
                                    bound=bound, ok=mu <= bound,
                                    slack=bound - mu))
    return ProjectionReport(ok=all(c.ok for c in cells), cells=tuple(cells))


def tail_mass(nu, d: int, mu_mB, table: PartitionTable | None = None) -> Fraction:
    """sum_{i=0}^{floor(nu d)} C(d,i) mu_mB^(d-i), the closed-form bound
    on the mass of cells with small |S|.

    For mu_mB = a/b it is one integer sum over b^d, of the terms
    C(d,i) a^(d-i) b^i.  When a PartitionTable is supplied, the bound is
    checked against the table's true small-cell mass; a failure
    (impossible for consistent inputs) raises.
    """
    nu = Fraction(nu)
    if not 0 <= nu <= 1:
        raise ParameterError(f"nu must lie in [0, 1], got {nu}")
    if d < 0:
        raise ParameterError("d must be >= 0")
    mu_mB = Fraction(mu_mB)
    a, b = mu_mB.numerator, mu_mB.denominator
    _check_result_bits("tail mass", d * max(abs(a), b).bit_length())
    cut = floor(nu * d)
    term = total = comb(d, cut) * a ** (d - cut) * b ** cut
    for i in range(cut, 0, -1):  # term i - 1, exactly
        term = term * i * a // ((d - i + 1) * b)
        total += term
    value = Fraction(total, b ** d)
    if table is not None:
        small = table.small_mass(cut)
        if value < small:
            raise ConstructionError(
                f"tail bound {value} below true small-cell mass {small}; "
                f"mu_mB or the table do not match")
    return value


@dataclass(frozen=True)
class LemmaReport:
    """theta_i per block, the threshold set I, and the eta chain check.

    chain_ok records nu/2 <= eta + (1-eta)*gamma, evaluated only when
    the closed-form tail mass is at most mu(A)/2 (the regime where the
    partition argument forces it); otherwise None.
    """

    d: int
    theta: tuple
    index_set: tuple
    eta: Fraction
    mu_A: Fraction
    gamma: Fraction
    nu: Fraction
    mu_mB: Fraction
    tail: Fraction
    tail_small: bool
    chain_ok: bool | None


def lemma_report(inst: Instance, cap_bits: int | None = None,
                 workers: int = 1) -> LemmaReport:
    """Compute theta_1..theta_d, I = {i : theta_i >= gamma mu(A)}, eta
    over the instance's system and params."""
    sys, params = inst.require("system"), inst.require("params")
    nbits = check_exact_feasible(inst.n, inst.r, cap_bits, sampled=False)
    mu_A, theta = _theta_scan(inst, nbits, sys.blocks, workers)
    gamma = params.gamma
    threshold = gamma * mu_A
    index_set = tuple(i for i, th in enumerate(theta) if th >= threshold)
    d = sys.d
    eta = Fraction(len(index_set), d) if d else Fraction(0)
    mu_mB = exact_measure(sys.m, inst.r, inst.p,
                          EdgePredicate.forb(inst.family),
                          cap_bits=cap_bits, workers=workers).value
    tail = tail_mass(params.nu, d, mu_mB)
    tail_small = mu_A > 0 and tail <= mu_A / 2
    chain_ok = (params.nu / 2 <= eta + (1 - eta) * gamma) if tail_small else None
    return LemmaReport(d=d, theta=theta, index_set=index_set, eta=eta,
                       mu_A=mu_A, gamma=gamma, nu=params.nu, mu_mB=mu_mB,
                       tail=tail, tail_small=tail_small, chain_ok=chain_ok)


@dataclass(frozen=True)
class SupersatReport:
    """The dense m-subset set X and the copy-count floor it certifies."""

    n: int
    m: int
    t: int
    gamma: Fraction
    mu_A: Fraction
    x_size: int
    x_members: tuple
    eta_eff: Fraction
    best_graph: RUniformGraph | None
    best_mset_count: int
    distinct_copies: int
    delta_floor: Fraction
    averaging_lhs: Fraction
    averaging_rhs: Fraction
    averaging_ok: bool


def x_set(inst: Instance, m: int, gamma, cap_bits: int | None = None,
          workers: int = 1) -> SupersatReport:
    """X = {m-subsets D : theta_D >= gamma mu(A)} over ALL m-subsets of
    the instance's vertices.

    Also locates the satisfying graph with the most containment
    m-subsets and checks the averaging inequality
    sum_D theta_D >= gamma mu(A) |X| that drives the count floor.
    theta_D is one value per orbit of D under the vertex permutations
    that fix A (see _orbits): when every permutation fixes A, X holds
    every m-subset or none.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma <= 1:
        raise ParameterError(f"gamma must lie in (0, 1], got {gamma}")
    n, r = inst.n, inst.r
    if not 1 <= m <= n:
        raise ParameterError(f"need 1 <= m <= n, got (m={m}, n={n})")
    nbits = check_exact_feasible(n, r, cap_bits, sampled=False)
    dsets = subsets_colex(n, m)
    nd = len(dsets)
    mu_A, theta, lhs, lhs_mask_route, best = _x_scan(inst, nbits, dsets,
                                                     workers)
    threshold = gamma * mu_A
    x_members = tuple(dsets[di] for di in range(nd) if theta[di] >= threshold)
    x_size = len(x_members)
    if lhs != lhs_mask_route:
        raise ConstructionError(
            f"averaging accumulators disagree: {lhs} != {lhs_mask_route}")
    rhs = gamma * mu_A * x_size
    t = inst.family.t
    eta_eff = Fraction(x_size, nd)
    delta_floor = gamma * eta_eff * Fraction(n ** t, (2 * m) ** t)
    if best is None:
        best_graph, best_mset_count, distinct = None, 0, 0
    else:
        best_mset_count, best_mask = best
        best_graph = RUniformGraph(n=n, r=r, edge_mask=best_mask)
        distinct = count_induced(best_graph, inst.family)
        if m >= t and distinct < best_mset_count // comb(n - t, m - t):
            raise ConstructionError(
                f"copy floor violated: {distinct} distinct copies but "
                f"{best_mset_count} containment m-subsets")
    return SupersatReport(n=n, m=m, t=t, gamma=gamma, mu_A=mu_A,
                          x_size=x_size, x_members=x_members, eta_eff=eta_eff,
                          best_graph=best_graph,
                          best_mset_count=best_mset_count,
                          distinct_copies=distinct, delta_floor=delta_floor,
                          averaging_lhs=lhs, averaging_rhs=rhs,
                          averaging_ok=lhs >= rhs)


@dataclass(frozen=True)
class CountingFloor:
    n: int
    m: int
    t: int
    ratio: Fraction
    floor: Fraction
    ok: bool
    proviso_met: bool


def counting_floor(n: int, m: int, t: int, gamma, eta) -> CountingFloor:
    """Compare gamma eta C(n,m)/C(n-t,m-t) with gamma eta (2m)^-t n^t.

    The binomial ratio is perm(n,t)/perm(m,t).  ok is guaranteed when
    n >= 2t (proviso_met); below that the exact comparison is still
    reported and may legitimately fail.
    """
    if not 0 <= t <= m <= n:
        raise ParameterError(f"need 0 <= t <= m <= n, got ({n}, {m}, {t})")
    _check_result_bits("counting floor", t * n.bit_length())
    ge = Fraction(gamma) * Fraction(eta)
    ratio = ge * Fraction(perm(n, t), perm(m, t))
    floor_val = ge * Fraction(n ** t, (2 * m) ** t) if t else ge
    return CountingFloor(n=n, m=m, t=t, ratio=ratio, floor=floor_val,
                         ok=ratio >= floor_val, proviso_met=n >= 2 * t)


def params_to_json_obj(params: LemmaParameters) -> dict:
    obj: dict = {"nu": fraction_str(params.nu), "gamma": fraction_str(params.gamma)}
    if params.m is not None:
        obj["m"] = params.m
    return obj


def params_from_json_obj(obj) -> LemmaParameters:
    try:
        return LemmaParameters(
            nu=_json_fraction(obj["nu"]),
            gamma=_json_fraction(obj["gamma"]) if "gamma" in obj else None,
            m=_json_int(obj["m"]) if "m" in obj else None)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad parameter object: {exc}", 0) from None


def instance_to_json_obj(inst: Instance) -> dict:
    obj = {"n": inst.n, "r": inst.r, "p": fraction_str(inst.p),
           "predicate": predicate_to_json_obj(inst.predicate),
           "family": family_to_json_obj(inst.family)}
    if inst.system is not None:
        obj["system"] = system_to_json_obj(inst.system)
    if inst.params is not None:
        obj["params"] = params_to_json_obj(inst.params)
    return obj


def instance_from_json_obj(obj) -> Instance:
    try:
        n, r = _json_int(obj["n"]), _json_int(obj["r"])
        p = _json_fraction(obj["p"])
        pred = predicate_from_json_obj(obj["predicate"])
        fam = family_from_json_obj(obj["family"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad instance object: {exc}", 0) from None
    system = system_from_json_obj(obj["system"]) if "system" in obj else None
    params = params_from_json_obj(obj["params"]) if "params" in obj else None
    return Instance(n=n, r=r, p=p, predicate=pred, family=fam, system=system,
                    params=params)


def load_instance(path: str) -> Instance:
    return instance_from_json_obj(load_json(path))


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(instance_to_json_obj(inst)) + "\n")

"""Exact and Monte-Carlo measures of graph classes in G(n,p).

mu_k(C) = Pr[G(k,p) in C].  The exact path histograms the masks of C by
edge count and evaluates sum_e count_e * p^e * (1-p)^(N-e) exactly; p = a/b
is a rational input throughout, so the sum is one integer dot product of
the counts with a^e (b-a)^(N-e) over the single denominator b^N, reduced to
one Fraction.  log2 mu_n and the entropy constants c_n = -log2(mu_n)/C(n,r)
carry 30 significant decimal digits (about 100 bits, well above the
50-bit contract), computed with the standard library's `decimal` from the
exact integers of mu_n = a/b.  Near 1, |mu_n - 1| < 10^-3 (the sparse end
of 0 < p < 1), ln(1 + d) is summed as a short series in the exact
difference a - b, so no digit cancels; elsewhere Decimal.ln takes the
30-digit quotient a/b.

Every measure runs over a list of levels (lo, hi, keep): a level's
candidates are the survivors of the level before ORed with every choice
of bits lo .. hi-1, and keep picks the survivors.  A hereditary class
that tests a forbidden family (`forb`, and intersections of `forb` and
`max_edges` with a `forb` part) has a level per vertex: in the colex
layout the low C(k-1,r) bits of a k-vertex mask are G[0..k-2], so level
k adds the edges through vertex k-1 and tests only the copies through
it.  Every other predicate is one level: all C(n,r) bits, then its
rule.  The exact path runs keep and the caller's reduction on blocks
of at most 2^16 candidates.  A full scan's block is one value of the
high bits over the low 16 (or all N) bits in edge-count order, held in
uint32, and only over the runs of low values that put a mask in the
kind's edge-count window: a block whose window is empty is never
built.  So its survivors arrive sorted by edge count; a vertex walk
enumerates the choices depth first, in slices that together hold at
most 2^20 candidates, and its blocks come parent by parent, so a
caller that wants them by edge count sorts them (supersat._scan).
Worker count only schedules blocks, and reductions add, so results do
not depend on it.

Each kind also names the vertex permutations that fix its class: those
that keep every cell of _vertex_cells' partition.  supersat reduces a
quantity that depends only on a vertex set's orbit under them once per
orbit.  And each kind names the window of edge counts its members can
have (_edge_window), which is all a full scan builds.

At a vertex level keep tests parents, not candidates.  The new vertex
v = k-1 is the top vertex of every row D = S + {v} through it, so D's
colex local mask splits as x_S(parent) | y_S(choice) << C(h-1, r): the
parent's graph on S, and the choice read as an (r-1)-graph on S.  The
`forb` rows then cost one table lookup per parent and row, not one test
per candidate (see family._contains_rows); keep returns each parent's
allowed choices as a bitset, and the level's histogram is counted from
it, hist[e(parent) + j] += popcount(allowed & W_j) with W_j the choices
of j edges, so the last level builds no survivor masks.

`mc_measure` draws the choices instead: level k's bits only for the
samples still in the class, so a sample that has left it draws no
further bits.  Survivors too few for a full batch wait for more from
later chunks, so each level runs on batches of at least _POOL samples,
but for the leftovers drained at the end.  Every bit is a closed form of
(sample, column), so the survivors are exactly the samples whose full
G(n,p) draw lies in the class, however they are batched.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from decimal import (MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext,
                     localcontext)
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import count
from math import comb, log10
from operator import index, mul
from typing import NamedTuple
import threading

import numpy as np
from concurrent.futures import ThreadPoolExecutor

from .codec import _json_int, graph_from_json_obj, graph_to_json_obj
from .errors import (ConstructionError, FeasibilityError, ParameterError,
                     ParseError)
from .family import (_BLOCK_MASKS, ForbiddenFamily, _contains_rows,
                     _no_choices, _pack_choices, normalize_family)
from .rng import (bernoulli_columns, bernoulli_threshold, column_keys,
                  stream_keys)

DEFAULT_EXACT_CAP_BITS = 24
HARD_EXACT_CAP_BITS = 30
# a sampled graph is held in one uint64
_SAMPLE_MAX_BITS = 63
# Largest sample count of one mc run.  The worker pool takes every chunk of
# _BLOCK_MASKS samples before it samples one; this keeps them at 2^16.
# The pending rows do not grow with the count: a level's hold fewer than
# 2 * _POOL samples however many chunks run.
_MAX_SAMPLES = 1 << 32
# mc_measure runs a level on batches of at least this many samples, but
# for the leftovers drained after the last chunk: a batch's survivors, if
# fewer, wait in the next level's pending rows.  At most half a chunk, so
# a pooled batch fits the workspace.  On Forb(K3), n = 11, p = 1/2 and
# 10^6 samples, 2^13 and 2^14 saved about 0.6 and 2 ms a call more than
# 2^12 (of about 70 ms), for 0.4 and 2.3 MB more pending rows.
_POOL = 1 << 12
# The exact walk's stack holds at most this many masks.
_SLICE_MASKS = 1 << 20
# A vertex level's rule sees at most this many of the new vertex's choice
# bits at a time, one block's worth; the walk sets the higher ones in the
# parents.
_OPEN_BITS = _BLOCK_MASKS.bit_length() - 1
# log2 and c_n values carry 30 significant digits, about 100 bits.
_LOG_CONTEXT = Context(prec=30, Emax=MAX_EMAX, Emin=MIN_EMIN)
_LN2 = Decimal(2).ln(_LOG_CONTEXT)
# Levels a predicate file may nest (a leaf is one): each is a recursion.
_PREDICATE_DEPTH = 64
# Largest integer an exact check or result is computed to, in bits:
# supersat's tail_mass and counting_floor refuse larger results (a tail
# mass at the limit, d = 2^16 and mu = nu = 1, takes about 1.4 s on one
# Xeon core), and the ceiling check skips larger powers.
MAX_RESULT_BITS = 1 << 16


@dataclass(frozen=True)
class EdgePredicate:
    """Pure boolean function of an r-graph on a fixed (n, r) space."""

    kind: str
    k: int | None = None
    family: ForbiddenFamily | None = None
    masks: frozenset | None = None
    parts: tuple = ()
    inner: "EdgePredicate | None" = None
    within: tuple | None = None

    @staticmethod
    def forb(fam: ForbiddenFamily) -> "EdgePredicate":
        return EdgePredicate(kind="forb", family=fam)

    @staticmethod
    def contains(fam: ForbiddenFamily, within=None) -> "EdgePredicate":
        """Some member induced in G, or in G[within] when within is given."""
        scope = tuple(sorted(within)) if within is not None else None
        return EdgePredicate(kind="contains", family=fam, within=scope)

    @staticmethod
    def min_edges(k: int) -> "EdgePredicate":
        return EdgePredicate(kind="min_edges", k=k)

    @staticmethod
    def max_edges(k: int) -> "EdgePredicate":
        return EdgePredicate(kind="max_edges", k=k)

    @staticmethod
    def explicit(masks) -> "EdgePredicate":
        return EdgePredicate(kind="explicit", masks=frozenset(map(index, masks)))

    @staticmethod
    def intersection(parts) -> "EdgePredicate":
        return EdgePredicate(kind="intersection", parts=tuple(parts))

    @staticmethod
    def complement(inner: "EdgePredicate") -> "EdgePredicate":
        return EdgePredicate(kind="complement", inner=inner)


@dataclass(frozen=True)
class MeasureResult:
    """A value of mu with method metadata; exact results carry no CI."""

    value: object  # Fraction (exact) or float (montecarlo point estimate)
    method: str
    log2_value: Decimal | None = None  # exact results only
    samples: int | None = None
    seed: int | None = None
    hits: int | None = None
    ci_level: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None


@dataclass(frozen=True)
class EntropyPoint:
    n: int
    mu: Fraction
    c_n: Decimal  # 30 significant digits, from the exact mu


def _space_bits(n: int, r: int) -> int:
    """C(n, r), the mask width of the (n, r) space, for n >= 0 and r >= 1."""
    if n < 0 or r < 1:
        raise ParameterError(f"need n >= 0 and r >= 1, got n={n}, r={r}")
    return comb(n, r)


def check_exact_feasible(n: int, r: int, cap_bits: int | None = None,
                         sampled: bool = True) -> int:
    """C(n, r) when it fits the mask-space cap: cap_bits, or
    DEFAULT_EXACT_CAP_BITS when None; no cap may exceed HARD_EXACT_CAP_BITS.

    Over the cap the error names only a fallback that works: mc_measure
    when the scan is a measure (`sampled`) and one uint64 holds its masks,
    a larger --cap when a scan with no sampled route fits the hard cap."""
    nbits = _space_bits(n, r)
    cap = DEFAULT_EXACT_CAP_BITS if cap_bits is None else cap_bits
    if cap < 0:
        raise ParameterError(f"exact cap must be >= 0, got {cap}")
    if cap > HARD_EXACT_CAP_BITS:
        raise ParameterError(
            f"exact cap {cap} exceeds hard cap {HARD_EXACT_CAP_BITS} bits"
        )
    if nbits > cap:
        if not sampled:
            fallback = (f"raise --cap to {nbits}"
                        if nbits <= HARD_EXACT_CAP_BITS else
                        f"no fallback exists above the hard cap "
                        f"2^{HARD_EXACT_CAP_BITS}")
        elif nbits <= _SAMPLE_MAX_BITS:
            fallback = "fall back to mc_measure for a sampled estimate"
        else:
            fallback = (f"no sampled fallback exists yet above C(n,r) = "
                        f"{_SAMPLE_MAX_BITS} bits")
        raise FeasibilityError(
            f"mask space 2^{nbits} for (n={n}, r={r}) exceeds the exact cap "
            f"2^{cap}; {fallback}"
        )
    return nbits


def _validate_p(p) -> Fraction:
    p = Fraction(p)
    if p < 0 or p > 1:
        raise ParameterError(f"edge probability {p} outside [0, 1]")
    return p


class _Level(NamedTuple):
    """Level bits lo .. hi-1, the rule that picks its survivors and, for
    a full scan, the window (least, most) of the edge counts a survivor
    can have; None, at a vertex level, admits every count."""

    lo: int
    hi: int
    keep: Callable
    window: tuple | None = None


def _children(parents: np.ndarray, allowed: np.ndarray, lo: int,
              width: int) -> np.ndarray:
    """The masks parents[i] | c << lo of every choice c in allowed[i], in
    that order."""
    if not width:
        return parents[allowed[:, 0] & 1 == 1]
    idx = np.flatnonzero(np.unpackbits(
        allowed.view(np.uint8), axis=1, count=1 << width,
        bitorder="little")).astype(np.uint64)
    return parents[idx >> np.uint64(width)] | (
        idx & np.uint64((1 << width) - 1)) << np.uint64(lo)


@lru_cache(maxsize=None)
def _edge_order(width: int) -> np.ndarray:
    """The values 0 .. 2^width - 1 by number of set bits, each run of one
    count in increasing order, as uint32: a full scan's lane."""
    values = np.arange(1 << width, dtype=np.uint32)
    order = values[np.argsort(np.bitwise_count(values), kind="stable")]
    order.setflags(write=False)
    return order


def _walk(levels: list, workers: int, per_block: Callable):
    """Enumerate the levels; yield (k, part) for every block of level k.

    A single level, a full scan of N = hi bits, gives part =
    per_block(0, masks, kept, hist): kept = keep(masks), the boolean
    column of the survivors, and hist their edge histogram, N + 1
    entries.  Block h holds the masks h << b | c, b = min(N, 16), for the
    low values c in the order of _edge_order(b) whose edge count lies in
    the level's window (_edge_window, one more entry of each kind): the
    runs of c with window - popcount(h) set bits, one contiguous slice of
    the order.  So every block of a full scan arrives sorted by edge
    count, a block whose window is empty is skipped, and the survivors
    with e edges are those kept in the run of c with e - popcount(h)
    bits: hist is one np.add.reduceat of kept over the block's runs.
    Its masks are uint32, which holds every mask up to
    HARD_EXACT_CAP_BITS.  Each worker writes its blocks into one buffer
    for the whole scan, so masks is only valid until per_block returns;
    one slice of blocks, at most _SLICE_MASKS candidates, runs at a time.
    In a walk of more than one level, one per vertex, part =
    per_block(k, parents, allowed, width): allowed[i] is the set of the
    choices c < 2^width for which parents[i] | c << lo passes keep,
    packed by family._pack_choices.  The first level
    extends the empty mask and keep(parents, width) tests whole parents:
    the low width = min(hi - lo, 16) bits of the level are open, and each
    survivor of the level before is a parent once per value of the
    level's higher bits, which are set in it.  This walk is depth first,
    in slices of at most _SLICE_MASKS // len(levels) candidates, so the
    stack holds one slice's survivors per level: at most 2^20 masks in
    all.  A slice is cut into blocks of at most 2^16 candidates, whole
    parents, and each block's survivors come parent by parent, not by
    edge count.  The survivors of every level but the last become the
    next level's parents.
    Blocks run one task each on `workers` threads.
    """
    last = len(levels) - 1
    budget = max(1, _SLICE_MASKS // len(levels))
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        apply = pool.map if workers > 1 else map

        def run(one, blocks):
            # a slice of one block runs here: a thread would only wait
            return list((apply if len(blocks) > 1 else map)(one, blocks))

        if not last:
            _, hi, keep, window = levels[0]
            # one vertex level (n = 0) has no window: every count
            least, most = window or (0, hi)
            low = min(hi, _OPEN_BITS)
            order = _edge_order(low)
            # order's runs of c with 0, 1, ..., low set bits start here
            starts = np.cumsum([0] + [comb(low, j) for j in range(low + 1)])
            local = threading.local()

            def runs(h):
                # first .. end: the set-bit counts of c that put
                # h << low | c in the window
                base = h.bit_count()
                return max(least - base, 0), min(most - base, low)

            def scan(h):
                first, end = runs(h)
                start, stop = starts[first], starts[end + 1]
                masks = getattr(local, "masks", None)
                if masks is None:
                    masks = local.masks = np.empty_like(order)
                masks = np.bitwise_or(order[start:stop], np.uint32(h << low),
                                      out=masks[:stop - start])
                kept = keep(masks)
                hist = np.zeros(hi + 1, dtype=np.int64)
                base = h.bit_count()
                hist[base + first:base + end + 1] = np.add.reduceat(
                    kept, starts[first:end + 1] - start, dtype=np.int64)
                return per_block(0, masks, kept, hist)

            blocks = [h for h, (first, end)
                      in enumerate(map(runs, range(1 << (hi - low))))
                      if first <= end]
            step = max(1, budget >> low)
            for first in range(0, len(blocks), step):
                for part in run(scan, blocks[first:first + step]):
                    yield 0, part
            return
        stack = [(0, np.zeros(1, dtype=np.uint64), 0)]
        while stack:
            k, front, pos = stack.pop()
            lo, hi, keep, *_ = levels[k]
            width = min(hi - lo, _OPEN_BITS)
            fold = hi - lo - width
            total = front.shape[0] << fold
            end = min(pos + max(1, budget >> width), total)
            if end < total:
                stack.append((k, front, end))
            step = max(1, _BLOCK_MASKS >> width)
            # parent t is survivor t >> fold with the choice bits from
            # width up set to t's low fold bits
            parents = np.arange(pos, end, dtype=np.uint64)
            parents = front[parents >> np.uint64(fold)] | (
                parents & np.uint64((1 << fold) - 1)) << np.uint64(lo + width)

            def one(i):
                cut = parents[i:i + step]
                allowed = keep(cut, width)
                return (_children(cut, allowed, lo, width)
                        if k < last else None,
                        per_block(k, cut, allowed, width))

            done = run(one, range(0, parents.shape[0], step))
            del parents
            for _, part in done:
                yield k, part
            if k < last:
                front = np.concatenate([masks for masks, _ in done])
                if front.shape[0]:
                    stack.append((k + 1, front, 0))


@lru_cache(maxsize=None)
def _choice_classes(width: int) -> np.ndarray:
    """classes[j]: the choices of `width` bits with j of them set, packed
    by family._pack_choices."""
    pops = np.bitwise_count(np.arange(1 << width, dtype=np.uint64))
    classes = _pack_choices(pops == np.arange(width + 1)[:, None])
    classes.setflags(write=False)
    return classes


@lru_cache(maxsize=None)
def _at_most(width: int) -> np.ndarray:
    """Row j + 1: the choices of `width` bits with at most j set; row 0
    is empty."""
    at_most = np.concatenate([_no_choices((1,), width),
                              np.bitwise_or.accumulate(_choice_classes(width),
                                                       axis=0)])
    at_most.setflags(write=False)
    return at_most


def _edge_histogram(parents, allowed, width: int, length: int) -> np.ndarray:
    """Edge histogram of a vertex level block's survivors, from the
    parents: a parent with e edges adds popcount(allowed row & classes[j])
    at e + j, and with one choice (width 0) its survivors are the parents
    themselves."""
    if not width:
        return np.bincount(np.bitwise_count(_children(parents, allowed, 0, 0)),
                           minlength=length)
    counts = np.bitwise_count(
        allowed[:, None, :] & _choice_classes(width)).sum(axis=2)
    at = np.bitwise_count(parents)[:, None] + np.arange(width + 1)
    # float weights are exact: a block holds far fewer than 2^53 masks
    return np.bincount(at.ravel(), weights=counts.ravel(),
                       minlength=length).astype(np.int64)


def _histograms(levels: list, workers: int) -> list:
    """Edge histogram of the survivors of every level."""
    hists = [np.zeros(hi + 1, dtype=np.int64) for _, hi, *_ in levels]
    if len(levels) == 1:  # a full scan's blocks come with theirs
        def one(k, masks, kept, hist):
            return hist
    else:
        def one(k, parents, allowed, width):
            return _edge_histogram(parents, allowed, width, hists[k].shape[0])
    for k, part in _walk(levels, workers, one):
        hists[k] += part
    return [h.tolist() for h in hists]


@lru_cache(maxsize=None)
def weight_powers(p: Fraction, nbits: int) -> tuple:
    """(w, b^nbits) for p = a/b: w[e] = a^e (b-a)^(nbits-e), so that
    w[e] / b^nbits = p^e (1-p)^(nbits-e) is the probability of one mask
    with e edges; integers over one denominator, cached per (p, nbits)."""
    a, b = p.numerator, p.denominator
    pe, qe = [1], [1]
    for _ in range(nbits):
        pe.append(pe[-1] * a)
        qe.append(qe[-1] * (b - a))
    return tuple(map(mul, pe, reversed(qe))), b ** nbits


def _weighted_sum(hist, p: Fraction) -> tuple:
    """(S, b^N): value_from_histogram(hist, p) = S / b^N, unreduced."""
    w, den = weight_powers(p, len(hist) - 1)
    return sum(map(mul, hist, w)), den


def value_from_histogram(hist, p: Fraction) -> Fraction:
    """sum_e hist[e] p^e (1-p)^(N-e), N = len(hist) - 1, for a list of
    Python ints: one integer dot product over weight_powers' denominator,
    one Fraction."""
    return Fraction(*_weighted_sum(hist, p))


def _check_ceiling(hists: list, p: Fraction, r: int) -> None:
    """Raise ConstructionError unless mu_k^(k-r) <= mu_{k-1}^k, that is
    c_{k-1} <= c_k, for every pair of vertex levels k-1, k with k > r.

    hists[k] is the class's edge histogram on k vertices.  Deleting a
    vertex of a member of a hereditary class leaves a member, and each
    r-set survives k - r of the k deletions, so Finner's inequality gives
    the bound.  With mu_k = S_k / b^C(k,r) and C(k,r) (k-r) = k C(k-1,r)
    the denominators cancel, and the check is S_k^(k-r) <= S_{k-1}^k in
    integers.  A pair whose powers pass MAX_RESULT_BITS is skipped.
    """
    sums = [_weighted_sum(h, p)[0] for h in hists]
    for k in range(r + 1, len(sums)):
        above, below = sums[k], sums[k - 1]
        if max(above.bit_length() * (k - r),
               below.bit_length() * k) > MAX_RESULT_BITS:
            continue
        if above ** (k - r) > below ** k:
            raise ConstructionError(
                f"mu_{k} exceeds its ceiling mu_{k - 1}^({k}/{k - r}): "
                f"the walk overcounted a level")


def _quotient(a: int, b: int) -> Decimal:
    """a / b for b > 0, to the current context's digits: the integer
    quotient of a 10^k by b, for a k that leaves it a few digits more, so
    that no huge integer is converted to Decimal."""
    k = (getcontext().prec + 3
         - int((a.bit_length() - b.bit_length() - 1) * log10(2)))
    q = a * 10 ** k // b if k >= 0 else a // (b * 10 ** -k)
    return Decimal(q).scaleb(-k)


def _log2_ratio(a: int, b: int) -> Decimal:
    """log2(a / b) for a >= 0 and b > 0, -Infinity at a = 0.

    Within 10^-3 of 1 it sums ln(a/b) = 2 atanh(s) = 2 (s + s^3/3 + ...),
    the series of ln(1 + d) at d = a/b - 1 rewritten in s = d / (2 + d)
    = (a - b) / (a + b): s is a quotient of exact integers, so no digit
    cancels, and |s| < 5 * 10^-4 needs about five terms.  Elsewhere it is
    Decimal.ln of the quotient a/b.
    """
    if a == 0:
        return Decimal("-Infinity")
    with localcontext(_LOG_CONTEXT):
        if abs(a - b) * 1000 >= b:
            return _quotient(a, b).ln() / _LN2
        s = term = ln = _quotient(a - b, a + b)
        for k in count(3, 2):
            term *= s * s
            if (ln_next := ln + term / k) == ln:
                return 2 * ln / _LN2
            ln = ln_next


def log2_fraction(x: Fraction) -> Decimal:
    """log2 x for x >= 0, to 30 significant digits."""
    return _log2_ratio(x.numerator, x.denominator)


def _tests_family(pred) -> bool:
    """Whether pred, or a part of its intersection, is a `forb` test."""
    return pred.kind == "forb" or any(map(_tests_family, pred.parts))


def _hereditary(pred) -> bool:
    """Whether pred is closed under induced subgraphs by its kind and parts."""
    return _KINDS[pred.kind].hereditary and all(map(_hereditary, pred.parts))


def _levels(pred, n: int, r: int) -> list:
    """(lo, hi, keep) levels of pred on the (n, r) space, each rule built once.

    A hereditary pred that tests a forbidden family has one level per vertex:
    level k adds the edges through vertex k-1, the colex bits C(k-1,r) ..
    C(k,r)-1, and keeps its rule through vertex k-1.  Any other pred, a bare
    edge bound too (one popcount per mask, cheaper as one scan), is one level
    over all C(n,r) bits.  Level n, built first, holds every family order the
    full space holds, so it raises the full-space rule's error, in part order.
    """
    if not (_hereditary(pred) and _tests_family(pred)):
        nbits = comb(n, r)
        return [_Level(0, nbits, _rule(pred, n, r),
                       _edge_window(pred, nbits))]
    keeps = [_rule(pred, k, r, through=k - 1) for k in range(n, -1, -1)]
    bounds = [0] + [comb(k, r) for k in range(n + 1)]
    return list(map(_Level, bounds, bounds[1:], reversed(keeps)))


def exact_measure(n: int, r: int, p, pred, cap_bits: int | None = None,
                  workers: int = 1) -> MeasureResult:
    """Exact mu_n(pred); deterministic.  The histogram of the last of
    pred's levels, from one walk: vertex by vertex for a hereditary pred
    with a `forb` test, one level over all 2^C(n,r) masks for any other.
    The vertex levels are checked against the ceiling c_{k-1} <= c_k
    (see _check_ceiling)."""
    p = _validate_p(p)
    check_exact_feasible(n, r, cap_bits)
    hists = _histograms(_levels(pred, n, r), workers)
    _check_ceiling(hists, p, r)
    value = value_from_histogram(hists[-1], p)
    return MeasureResult(value=value, method="exact",
                         log2_value=log2_fraction(value))


def _sample_bits(n: int, r: int) -> int:
    """C(n, r) when one uint64 holds a sampled mask of the (n, r) space."""
    nbits = _space_bits(n, r)
    if nbits > _SAMPLE_MAX_BITS:
        raise FeasibilityError(
            f"vectorized sampling limited to C(n,r) <= {_SAMPLE_MAX_BITS} bits, "
            f"got {nbits}"
        )
    return nbits


def clopper_pearson(hits: int, samples: int, level: float) -> tuple:
    """Exact binomial CI; conservative coverage >= level.

    The bounds are Beta quantiles, taken as inverse regularized incomplete
    beta values.  The special-function module is imported on the first
    call, so commands that never sample never load it.
    """
    from scipy.special import betaincinv

    alpha = 1.0 - level
    lo = 0.0 if hits == 0 else float(
        betaincinv(hits, samples - hits + 1, alpha / 2))
    hi = 1.0 if hits == samples else float(
        betaincinv(hits + 1, samples - hits, 1 - alpha / 2))
    return lo, hi


class _Workspace:
    """One `mc_measure` worker's arrays, of one chunk's length, allocated
    on its first chunk and reused by every chunk after it: the chunk's
    stream offsets, the `column_keys` and masks of the samples still in
    the class (two rows each, which compaction fills in turn), and the
    scratch columns of `bernoulli_columns`.  They are rows of one block
    (the bool and uint16 columns share its last row), so the
    heap that holds it, freed at the end of a call, is kept for the next
    call rather than trimmed and faulted in again; a chunk allocates
    nothing chunk-sized but its rules' outputs and survivor indices.

    A level also has pending rows, keys over masks, allocated the first
    time a batch parks survivors there and kept for the call: samples
    that reached the level in batches of fewer than _POOL, held until
    _POOL of them have gathered (see `park`)."""

    def __init__(self, size: int):
        block = np.empty((8, size), dtype=np.uint64)
        self.streams, self.z, self.tmp = block[:3]
        self.keys, self.masks = block[3:5], block[5:7]
        self.below = block[7].view(bool)[:size]
        self.group = block[7].view(np.uint16)[size:2 * size]
        self.streams[:] = np.arange(size, dtype=np.uint64)
        self.size = size
        self.pending = {}  # level -> [rows, count]

    def park(self, k, keys, masks, index=None):
        """Append the samples index of a batch (all when None), fewer than
        _POOL, to level k's pending rows.  Return the pending batch (keys,
        masks) once it holds _POOL samples or more, emptying the rows,
        else None.  So the rows hold at most 2 * _POOL - 2 samples, and
        no more than `size`, the call's samples, in a call of one chunk."""
        held = self.pending.get(k)
        if held is None:
            rows = np.empty((2, min(self.size, 2 * _POOL)), dtype=np.uint64)
            held = self.pending[k] = [rows, 0]
        rows, start = held
        stop = start + len(keys if index is None else index)
        if index is None:
            rows[0, start:stop], rows[1, start:stop] = keys, masks
        else:
            np.take(keys, index, out=rows[0, start:stop], mode="clip")
            np.take(masks, index, out=rows[1, start:stop], mode="clip")
        held[1] = stop if stop < _POOL else 0
        return None if stop < _POOL else (rows[0, :stop], rows[1, :stop])

    def held(self, k):
        """Level k's pending batch (keys, masks), however short; None when
        it is empty."""
        rows, stop = self.pending.get(k, (None, 0))
        return (rows[0, :stop], rows[1, :stop]) if stop else None


def mc_measure(n: int, r: int, p, pred, samples: int, seed: int,
               ci_level: float = 0.95, workers: int = 1) -> MeasureResult:
    """Monte-Carlo mu_n(pred) with a Clopper-Pearson interval.

    Sample i is G(n,p) on substream i: bit j of its mask is output j+1 of
    the substream, compared with the `bernoulli_threshold` of p.  The
    samples walk pred's levels, as the exact path does, but draw each
    level's bits instead of enumerating them: level k draws its columns
    only for the samples still in the class and keeps those whose level-k
    rule holds.  hits counts the samples that pass every level; a
    survivor's mask equals its full draw bit for bit.

    Samples are drawn in chunks of 2^16, and each worker thread keeps one
    _Workspace for the whole call.  A chunk's keys are turned into their
    `column_keys` form once, and every level draws its columns from that
    form.  A batch's survivors, compacted through one flatnonzero index,
    go straight on to the next level while at least _POOL of them
    remain; fewer are parked in that level's pending rows, which run as
    one batch once _POOL samples have gathered there.  After the last
    chunk every worker's leftovers are drained, level by level, into the
    first worker's rows.  So the late levels, which only a few percent of
    the samples reach, run on a few full batches rather than once per
    chunk.  hits sums per-sample outcomes, and each bit is a closed form
    of (sample, column), so the result depends neither on `workers` nor
    on how samples are batched.  At most _MAX_SAMPLES samples are taken.
    """
    p = _validate_p(p)
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    if samples > _MAX_SAMPLES:
        raise ParameterError(
            f"samples must be <= {_MAX_SAMPLES}, got {samples}")
    if not 0 < ci_level < 1:
        raise ParameterError("ci_level must be in (0, 1)")
    _sample_bits(n, r)  # refuses masks wider than one uint64
    threshold = bernoulli_threshold(p)
    levels = _levels(pred, n, r)
    last = len(levels) - 1
    local = threading.local()
    spaces = []  # every worker's workspace, for the drain

    def walk(ws, k, batch):
        """Run batch (keys, masks), samples that passed the levels before
        k, from level k on; return its hits.  Samples it leaves parked
        are counted when their level's pending rows run."""
        keys, masks = batch
        side = 0
        while True:
            m = keys.shape[0]
            first, end, keep, _ = levels[k]
            bernoulli_columns(keys, masks, first, end, threshold,
                              (ws.z[:m], ws.tmp[:m], ws.below[:m],
                               ws.group[:m]))
            ok = keep(masks)
            alive = int(np.count_nonzero(ok))
            if k == last or not alive:
                return alive
            k += 1
            index = np.flatnonzero(ok) if alive < m else None
            if alive < _POOL:
                if (batch := ws.park(k, keys, masks, index)) is None:
                    return 0
                keys, masks = batch
            elif index is not None:
                # keys and masks are in neither row of this side
                side ^= 1
                keys = np.take(keys, index, out=ws.keys[side, :alive],
                               mode="clip")
                masks = np.take(masks, index, out=ws.masks[side, :alive],
                                mode="clip")

    def one(lo):
        m = min(lo + _BLOCK_MASKS, samples) - lo
        ws = getattr(local, "ws", None)
        if ws is None:
            ws = local.ws = _Workspace(min(samples, _BLOCK_MASKS))
            spaces.append(ws)
        keys, masks = ws.keys[0, :m], ws.masks[0, :m]
        np.add(ws.streams[:m], np.uint64(lo), out=keys)
        stream_keys(seed, keys, out=keys, tmp=ws.tmp[:m])
        column_keys(keys, tmp=ws.tmp[:m])
        masks.fill(0)
        return walk(ws, 0, (keys, masks))

    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        hits = sum((pool.map if workers > 1 else map)(
            one, range(0, samples, _BLOCK_MASKS)))
    # the drain: level by level, so a batch parks only in rows not yet read
    sink = spaces[0]
    for k in range(1, last + 1):
        for ws in spaces[1:]:
            if (batch := ws.held(k)) and (batch := sink.park(k, *batch)):
                hits += walk(sink, k, batch)
        if batch := sink.held(k):
            hits += walk(sink, k, batch)
    est = hits / samples
    lo, hi = clopper_pearson(hits, samples, ci_level)
    return MeasureResult(value=est, method="montecarlo",
                         samples=samples, seed=seed, hits=hits,
                         ci_level=ci_level, ci_low=lo, ci_high=hi)


def cn_from_measure(n: int, r: int, mu: Fraction) -> Decimal:
    """c_n = log2(1/mu) / C(n, r), to 30 significant digits; log2 of 1/mu,
    not -log2 mu, so that mu = 1 gives 0 and not -0."""
    nbits = comb(n, r)
    if nbits < 1:
        raise ParameterError(f"c_n undefined for C({n},{r}) = 0")
    if mu <= 0:
        raise ParameterError("c_n undefined for zero measure")
    with localcontext(_LOG_CONTEXT):
        return _log2_ratio(mu.denominator, mu.numerator) / nbits


def cn_sequence(fam: ForbiddenFamily, p, n_list, cap_bits: int | None = None,
                workers: int = 1) -> list:
    """Entropy points c_n = -log2(mu_n(Forb(fam)))/C(n,r), exact input only.

    One walk of the vertex levels up to the largest n yields every point.
    Errors come in list order, as if each n were measured on its own,
    except that a family order the kernel cannot test is refused before
    any point.  Once an n fails its checks, the walk runs only when a
    point before it may be undefined (see _surely_positive).  Every pair
    of walk levels is checked against the ceiling c_{k-1} <= c_k (see
    _check_ceiling).
    """
    r = fam.r
    if n_list:
        p = _validate_p(p)
    feasible, failure = [], None
    for n in n_list:
        try:
            check_exact_feasible(n, r, cap_bits)
        except (ParameterError, FeasibilityError) as exc:
            failure = exc
            break
        feasible.append(n)
    if feasible:  # built before any error is raised: a refused order comes first
        levels = _levels(EdgePredicate.forb(fam), max(feasible), r)
    if failure is not None and all(_surely_positive(levels, n, p)
                                   for n in feasible):
        raise failure
    out = []
    if feasible:
        hists = _histograms(levels, workers)
        _check_ceiling(hists, p, r)
        for n in feasible:
            mu = value_from_histogram(hists[n], p)
            out.append(EntropyPoint(n=n, mu=mu, c_n=cn_from_measure(n, r, mu)))
    if failure is not None:
        raise failure
    return out


def _surely_positive(levels: list, n: int, p: Fraction) -> bool:
    """Whether c_n is surely defined: C(n,r) > 0 and the empty or complete
    graph, whichever has positive probability, passes levels 0..n."""
    full = (1 << levels[n].hi) - 1
    masks = np.array([0] * (p < 1) + [full] * (p > 0), dtype=np.uint64)
    for _, hi, keep, _ in levels[:n + 1]:
        masks = masks[keep(masks & np.uint64((1 << hi) - 1))]
    return full > 0 and masks.size > 0


def fraction_str(x: Fraction) -> str:
    """x as "num/den", exactly: past str()'s digit limit, through Decimal."""
    x = Fraction(x)
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # more digits than str() renders
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def family_to_json_obj(fam: ForbiddenFamily) -> list:
    return [graph_to_json_obj(g) for g in fam.members]


def family_from_json_obj(obj) -> ForbiddenFamily:
    return normalize_family([graph_from_json_obj(g) for g in obj])


def predicate_to_json_obj(pred: EdgePredicate) -> dict:
    return {"kind": pred.kind, **_KINDS[pred.kind].operands(pred)}


def predicate_from_json_obj(obj) -> EdgePredicate:
    return _predicate_from(obj, _PREDICATE_DEPTH)


def _predicate_from(obj, depth: int) -> EdgePredicate:
    if depth == 0:  # obj would be level _PREDICATE_DEPTH + 1
        raise ParseError(f"predicate nests past {_PREDICATE_DEPTH} levels", 0)
    try:
        kind = obj["kind"]
        entry = _KINDS.get(kind)
        if entry is not None:
            return entry.parse(obj, depth - 1)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad predicate object: {exc}", 0) from None
    raise ParseError(f"unknown predicate kind {kind!r}", 0)


def _explicit_rule(pred, n, r, through=None):
    nbits = comb(n, r)
    outside = [m for m in pred.masks if m < 0 or m >> nbits]
    if outside:
        raise ParameterError(
            f"explicit mask {min(outside)} lies outside the "
            f"C({n},{r}) = {nbits}-bit layout")
    wanted = np.fromiter(sorted(pred.masks), count=len(pred.masks), dtype=np.uint64)
    # in the masks' own dtype: each mask fits it, and no block is promoted
    return lambda masks: np.isin(masks, wanted.astype(masks.dtype, copy=False))


def _contains_rule(pred, n, r, through=None):
    scope = range(n) if pred.within is None else pred.within
    run = _contains_rows(n, r, pred.family, [scope], through=through)
    return lambda masks, *width: run(masks, *width)[0]


def _max_edges_rule(pred, n, r, through=None):
    def keep(masks, width=None):
        edges = np.bitwise_count(masks)
        if width is None:
            return edges <= pred.k
        # row j + 1 of _at_most: the choices with at most j edges
        return _at_most(width)[
            np.clip(pred.k - edges.astype(np.int64), -1, width) + 1]
    return keep


def _negated(keep):
    # a negated choice set may set its unread bits past 2^width
    return lambda masks, *width: ~keep(masks, *width)


def _intersection_rule(pred, n, r, through=None):
    keeps = [_rule(q, n, r, through) for q in pred.parts]

    def keep(masks, *width):
        every = (~_no_choices(masks.shape, *width) if width
                 else np.ones(masks.shape, dtype=bool))
        return reduce(np.bitwise_and, (f(masks, *width) for f in keeps), every)
    return keep


class _Kind(NamedTuple):
    """One predicate kind: its rule, JSON operands and their parser, the
    vertex partition whose permutations fix its class, the window of edge
    counts its members can have, and whether it is closed under induced
    subgraphs (an intersection when its parts are too)."""

    # (pred, n, r, through=None) -> keep, a boolean column over masks of the
    # (n, r) space; with `through`, only the copies through that vertex.
    # A hereditary kind's keep, built with through = n-1, also takes
    # (parents, width) and returns the allowed choices of each parent, as
    # _walk describes.
    rule: Callable
    operands: Callable  # pred -> JSON fields after "kind"
    parse: Callable     # (JSON object, levels left for parts) -> predicate
    cells: Callable     # (pred, n) -> a cell label per vertex
    window: Callable    # (pred, N) -> (least, most) edge counts on N bits
    hereditary: bool = False


def _rule(pred, n: int, r: int, through: int | None = None):
    return _KINDS[pred.kind].rule(pred, n, r, through)


def _vertex_cells(pred, n: int) -> tuple:
    """A cell label per vertex of range(n).  Every permutation of the
    vertices that maps each cell onto itself maps the class of pred onto
    itself, so a quantity that every vertex permutation carries along,
    such as the measure of the class and some family member induced in a
    vertex set D, depends only on how many vertices D has in each cell.

    An unscoped kind is one cell: edge counts, and the family's orbits,
    are closed under relabelling.  `contains` within S is {S, V - S},
    `explicit` puts each vertex in a cell of its own, and `intersection`
    and `complement` take the common refinement of their parts' cells.
    """
    return _KINDS[pred.kind].cells(pred, n)


def _one_cell(pred, n: int) -> tuple:
    return (0,) * n


def _scope_cells(pred, n: int) -> tuple:
    if pred.within is None:
        return _one_cell(pred, n)
    return tuple(int(v in pred.within) for v in range(n))


def _refined_cells(preds, n: int) -> tuple:
    """The common refinement of the cells of preds, numbered in order of
    their first vertex."""
    cols = [_vertex_cells(q, n) for q in preds]
    first: dict = {}
    return tuple(first.setdefault(key, len(first))
                 for key in (zip(*cols) if cols else [()] * n))


def _edge_window(pred, nbits: int) -> tuple:
    """(least, most): every member of pred's class on nbits bits has
    between least and most edges, and the window is empty (least > most)
    when the class is.  `min_edges` k is [k, N], `max_edges` k [0, k],
    `explicit` the popcounts of its masks, `intersection` the common part
    of its parts' windows, and every other kind [0, N]."""
    least, most = _KINDS[pred.kind].window(pred, nbits)
    return max(least, 0), min(most, nbits)


def _every_count(pred, nbits: int) -> tuple:
    return 0, nbits


def _explicit_window(pred, nbits: int) -> tuple:
    pops = [m.bit_count() for m in pred.masks]
    return (min(pops), max(pops)) if pops else (1, 0)


def _common_window(pred, nbits: int) -> tuple:
    windows = [(0, nbits)] + [_edge_window(q, nbits) for q in pred.parts]
    return max(w[0] for w in windows), min(w[1] for w in windows)


_KINDS = {
    "min_edges": _Kind(
        lambda p, n, r, through=None: lambda masks: (
            np.bitwise_count(masks) >= p.k),
        lambda p: {"k": p.k},
        lambda o, _: EdgePredicate.min_edges(_json_int(o["k"])),
        _one_cell,
        lambda p, nbits: (p.k, nbits)),
    "max_edges": _Kind(
        _max_edges_rule,
        lambda p: {"k": p.k},
        lambda o, _: EdgePredicate.max_edges(_json_int(o["k"])),
        _one_cell,
        lambda p, nbits: (0, p.k),
        hereditary=True),
    "explicit": _Kind(
        _explicit_rule,
        lambda p: {"masks": sorted(p.masks)},
        lambda o, _: EdgePredicate.explicit(map(_json_int, o["masks"])),
        lambda p, n: tuple(range(n)),
        _explicit_window),
    "forb": _Kind(
        lambda p, n, r, through=None: _negated(
            _contains_rule(p, n, r, through)),
        lambda p: {"family": family_to_json_obj(p.family)},
        lambda o, _: EdgePredicate.forb(family_from_json_obj(o["family"])),
        _one_cell,
        _every_count,
        hereditary=True),
    "contains": _Kind(
        _contains_rule,
        lambda p: {"family": family_to_json_obj(p.family)} | (
            {} if p.within is None else {"within": list(p.within)}),
        lambda o, _: EdgePredicate.contains(
            family_from_json_obj(o["family"]),
            within=None if o.get("within") is None
            else map(_json_int, o["within"])),
        _scope_cells,
        _every_count),
    "intersection": _Kind(
        _intersection_rule,
        lambda p: {"parts": [predicate_to_json_obj(q) for q in p.parts]},
        lambda o, depth: EdgePredicate.intersection(
            _predicate_from(q, depth) for q in o["parts"]),
        lambda p, n: _refined_cells(p.parts, n),
        _common_window,
        hereditary=True),
    "complement": _Kind(
        lambda p, n, r, through=None: _negated(_rule(p.inner, n, r)),
        lambda p: {"inner": predicate_to_json_obj(p.inner)},
        lambda o, d: EdgePredicate.complement(_predicate_from(o["inner"], d)),
        lambda p, n: _vertex_cells(p.inner, n),
        _every_count),
}

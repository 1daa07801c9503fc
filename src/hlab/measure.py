"""Exact and Monte-Carlo measures of graph classes in G(n,p).

mu_k(C) = Pr[G(k,p) in C].  The exact path enumerates every edge_mask,
histograms satisfying masks by edge count, and evaluates
sum_e count_e * p^e * (1-p)^(N-e) in exact rational arithmetic; p is a
rational input throughout.  Entropy constants c_n = -log2(mu_n)/C(n,r)
are computed in 96-bit mpmath arithmetic (round-to-nearest), well above
the 50-bit contract.

Enumeration is chunked on a fixed grid of at most 2^20 masks; worker
count only schedules chunks, so results are bit-identical for any
worker count.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb
from operator import index
from typing import NamedTuple

import mpmath
import numpy as np
from concurrent.futures import ThreadPoolExecutor

from .codec import _json_int, graph_from_json_obj, graph_to_json_obj
from .errors import FeasibilityError, ParameterError, ParseError
from .family import ForbiddenFamily, batch_contains, normalize_family
from .rng import bernoulli_masks, bernoulli_threshold

DEFAULT_EXACT_CAP_BITS = 24
HARD_EXACT_CAP_BITS = 30
# sample_masks holds one sampled graph in one uint64
_SAMPLE_MAX_BITS = 63
_BLOCK_BITS = 20
_LOG_PREC_BITS = 96


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

    def batch(self, masks: np.ndarray, n: int, r: int) -> np.ndarray:
        """Boolean column over an array of uint64 edge_masks of the (n, r) space."""
        return _KINDS[self.kind].batch(self, masks, n, r)


@dataclass(frozen=True)
class MeasureResult:
    """A value of mu with method metadata; exact results carry no CI."""

    value: object  # Fraction (exact) or float (montecarlo point estimate)
    method: str
    log2_value: object
    samples: int | None = None
    seed: int | None = None
    hits: int | None = None
    ci_level: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None


@dataclass(frozen=True)
class EntropyPoint:
    n: int
    measure: MeasureResult
    c_n: object  # mpmath.mpf


def _space_bits(n: int, r: int) -> int:
    """C(n, r), the mask width of the (n, r) space, for n >= 0 and r >= 1."""
    if n < 0 or r < 1:
        raise ParameterError(f"need n >= 0 and r >= 1, got n={n}, r={r}")
    return comb(n, r)


def check_exact_feasible(n: int, r: int, cap_bits: int | None = None) -> int:
    """C(n, r) when it fits the mask-space cap: cap_bits, or
    DEFAULT_EXACT_CAP_BITS when None; no cap may exceed HARD_EXACT_CAP_BITS."""
    nbits = _space_bits(n, r)
    cap = DEFAULT_EXACT_CAP_BITS if cap_bits is None else cap_bits
    if cap > HARD_EXACT_CAP_BITS:
        raise ParameterError(
            f"exact cap {cap} exceeds hard cap {HARD_EXACT_CAP_BITS} bits"
        )
    if nbits > cap:
        fallback = ("fall back to mc_measure for a sampled estimate"
                    if nbits <= _SAMPLE_MAX_BITS else
                    f"no sampled fallback exists yet above C(n,r) = "
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


def mask_chunks(nbits: int):
    """Fixed chunk grid over the 2^nbits mask space (worker-independent)."""
    step = 1 << min(_BLOCK_BITS, nbits)
    total = 1 << nbits
    return [(start, min(start + step, total)) for start in range(0, total, step)]


def map_chunks(fn, chunks, workers: int = 1) -> list:
    """Apply fn over chunks, preserving chunk order in the result list."""
    if workers <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


def _edge_histogram(pred, n: int, r: int, nbits: int, workers: int) -> list:
    def one(chunk):
        start, end = chunk
        masks = np.arange(start, end, dtype=np.uint64)
        sat = pred.batch(masks, n, r)
        pops = np.bitwise_count(masks[sat])
        return np.bincount(pops, minlength=nbits + 1)

    hist = [0] * (nbits + 1)
    for part in map_chunks(one, mask_chunks(nbits), workers):
        for e, c in enumerate(part):
            hist[e] += int(c)
    return hist


def weight_powers(p: Fraction, nbits: int) -> tuple:
    """(p^e)_e and ((1-p)^e)_e as exact rationals."""
    q = 1 - p
    pe, qe = [Fraction(1)], [Fraction(1)]
    for _ in range(nbits):
        pe.append(pe[-1] * p)
        qe.append(qe[-1] * q)
    return pe, qe


def value_from_histogram(hist, p: Fraction, nbits: int) -> Fraction:
    pe, qe = weight_powers(p, nbits)
    return sum((hist[e] * pe[e] * qe[nbits - e] for e in range(nbits + 1)),
               Fraction(0))


def log2_fraction(x: Fraction):
    if x == 0:
        return mpmath.mpf("-inf")
    with mpmath.workprec(_LOG_PREC_BITS):
        return mpmath.log(mpmath.mpf(x.numerator), 2) - mpmath.log(
            mpmath.mpf(x.denominator), 2
        )


def exact_measure(n: int, r: int, p, pred, cap_bits: int | None = None,
                  workers: int = 1) -> MeasureResult:
    """Exact mu_n(pred) by full mask enumeration; deterministic."""
    p = _validate_p(p)
    nbits = check_exact_feasible(n, r, cap_bits)
    hist = _edge_histogram(pred, n, r, nbits, workers)
    value = value_from_histogram(hist, p, nbits)
    return MeasureResult(value=value, method="exact", log2_value=log2_fraction(value))


def sample_masks(n: int, r: int, p, seed: int, count: int,
                 first_stream: int = 0) -> np.ndarray:
    """Masks of `count` G(n,p) draws; sample i uses substream first_stream+i.

    Identical to random_graph(n, r, p, Rng(seed, stream=first_stream+i))
    for each i, so results never depend on how batches are partitioned.
    """
    p = _validate_p(p)
    nbits = _space_bits(n, r)
    if nbits > _SAMPLE_MAX_BITS:
        raise FeasibilityError(
            f"vectorized sampling limited to C(n,r) <= {_SAMPLE_MAX_BITS} bits, "
            f"got {nbits}"
        )
    return bernoulli_masks(seed, first_stream, count, nbits,
                           bernoulli_threshold(p))


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


def mc_measure(n: int, r: int, p, pred, samples: int, seed: int,
               ci_level: float = 0.95, workers: int = 1) -> MeasureResult:
    """Monte-Carlo mu_n(pred) with a Clopper-Pearson interval."""
    p = _validate_p(p)
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    if not 0 < ci_level < 1:
        raise ParameterError("ci_level must be in (0, 1)")
    step = 1 << 16
    chunks = [(i, min(i + step, samples)) for i in range(0, samples, step)]

    def one(chunk):
        lo, hi = chunk
        masks = sample_masks(n, r, p, seed, hi - lo, first_stream=lo)
        return int(pred.batch(masks, n, r).sum())

    hits = sum(map_chunks(one, chunks, workers))
    est = hits / samples
    lo, hi = clopper_pearson(hits, samples, ci_level)
    log2v = mpmath.mpf("-inf") if est == 0 else mpmath.mpf(float(np.log2(est)))
    return MeasureResult(value=est, method="montecarlo", log2_value=log2v,
                         samples=samples, seed=seed, hits=hits,
                         ci_level=ci_level, ci_low=lo, ci_high=hi)


def cn_from_measure(n: int, r: int, mu: Fraction):
    nbits = comb(n, r)
    if nbits < 1:
        raise ParameterError(f"c_n undefined for C({n},{r}) = 0")
    if mu <= 0:
        raise ParameterError("c_n undefined for zero measure")
    with mpmath.workprec(_LOG_PREC_BITS):
        return -log2_fraction(mu) / nbits


def cn_sequence(fam: ForbiddenFamily, p, n_list, cap_bits: int | None = None,
                workers: int = 1) -> list:
    """Entropy points c_n = -log2(mu_n(Forb(fam)))/C(n,r), exact input only."""
    pred = EdgePredicate.forb(fam)
    out = []
    for n in n_list:
        res = exact_measure(n, fam.r, p, pred, cap_bits=cap_bits, workers=workers)
        out.append(EntropyPoint(n=n, measure=res,
                                c_n=cn_from_measure(n, fam.r, res.value)))
    return out


def fraction_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def family_to_json_obj(fam: ForbiddenFamily) -> list:
    return [graph_to_json_obj(g) for g in fam.members]


def family_from_json_obj(obj) -> ForbiddenFamily:
    return normalize_family([graph_from_json_obj(g) for g in obj])


def predicate_to_json_obj(pred: EdgePredicate) -> dict:
    return {"kind": pred.kind, **_KINDS[pred.kind].operands(pred)}


def predicate_from_json_obj(obj) -> EdgePredicate:
    try:
        kind = obj["kind"]
        entry = _KINDS.get(kind)
        if entry is not None:
            return entry.parse(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad predicate object: {exc}", 0) from None
    raise ParseError(f"unknown predicate kind {kind!r}", 0)


def _explicit_batch(pred, masks, n, r):
    nbits = comb(n, r)
    outside = [m for m in pred.masks if m < 0 or m >> nbits]
    if outside:
        raise ParameterError(
            f"explicit mask {min(outside)} lies outside the "
            f"C({n},{r}) = {nbits}-bit layout")
    wanted = np.fromiter(sorted(pred.masks), count=len(pred.masks), dtype=np.uint64)
    return np.isin(masks, wanted)


class _Kind(NamedTuple):
    """One predicate kind: batch rule, JSON operands, and their parser."""

    batch: Callable     # (pred, masks, n, r) -> boolean column
    operands: Callable  # pred -> JSON fields after "kind"
    parse: Callable     # JSON object -> EdgePredicate


_KINDS = {
    "min_edges": _Kind(
        lambda p, masks, n, r: np.bitwise_count(masks) >= p.k,
        lambda p: {"k": p.k},
        lambda o: EdgePredicate.min_edges(_json_int(o["k"]))),
    "max_edges": _Kind(
        lambda p, masks, n, r: np.bitwise_count(masks) <= p.k,
        lambda p: {"k": p.k},
        lambda o: EdgePredicate.max_edges(_json_int(o["k"]))),
    "explicit": _Kind(
        _explicit_batch,
        lambda p: {"masks": sorted(p.masks)},
        lambda o: EdgePredicate.explicit(map(_json_int, o["masks"]))),
    "forb": _Kind(
        lambda p, masks, n, r: ~batch_contains(masks, n, r, p.family),
        lambda p: {"family": family_to_json_obj(p.family)},
        lambda o: EdgePredicate.forb(family_from_json_obj(o["family"]))),
    "contains": _Kind(
        lambda p, masks, n, r: batch_contains(masks, n, r, p.family,
                                              within=p.within),
        lambda p: {"family": family_to_json_obj(p.family)} | (
            {} if p.within is None else {"within": list(p.within)}),
        lambda o: EdgePredicate.contains(
            family_from_json_obj(o["family"]),
            within=None if o.get("within") is None
            else map(_json_int, o["within"]))),
    "intersection": _Kind(
        lambda p, masks, n, r: reduce(
            np.logical_and, (q.batch(masks, n, r) for q in p.parts),
            np.ones(masks.shape, dtype=bool)),
        lambda p: {"parts": [predicate_to_json_obj(q) for q in p.parts]},
        lambda o: EdgePredicate.intersection(
            predicate_from_json_obj(q) for q in o["parts"])),
    "complement": _Kind(
        lambda p, masks, n, r: ~p.inner.batch(masks, n, r),
        lambda p: {"inner": predicate_to_json_obj(p.inner)},
        lambda o: EdgePredicate.complement(predicate_from_json_obj(o["inner"]))),
}

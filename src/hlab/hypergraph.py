"""r-uniform hypergraphs on labeled vertices as colex-ranked bit vectors.

Bit k of ``edge_mask`` corresponds to the r-subset with colex rank k,
rank({a_1 < ... < a_r}) = sum_i C(a_i, i).  Graphs are immutable values;
every operation here is a pure function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import MalformedSubsetError, ParameterError, SizeLimitError

# Brute-force canonicalization stays exact only while n! enumeration is
# affordable; these are the documented defaults.
CANONICAL_BOUND_GRAPHS = 10
CANONICAL_BOUND_HYPERGRAPHS = 8


def rank_subset(subset, r: int) -> int:
    """Colex rank of a strictly increasing r-subset."""
    s = tuple(subset)
    if len(s) != r:
        raise MalformedSubsetError(f"expected {r} elements, got {len(s)}")
    prev = -1
    total = 0
    for i, a in enumerate(s, start=1):
        if a <= prev:
            raise MalformedSubsetError(f"subset {s} not strictly increasing")
        prev = a
        total += comb(a, i)
    return total


def unrank_subset(k: int, r: int) -> tuple:
    """The r-subset of colex rank k >= 0, by the combinatorial number
    system: from the top down, element i is the largest a with
    C(a, i) <= what is left of k, found by bisection."""
    out = []
    for i in range(r, 0, -1):
        lo, hi = i - 1, i - 1 + k  # C(lo, i) = 0 <= k < C(hi + 1, i)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if comb(mid, i) <= k:
                lo = mid
            else:
                hi = mid - 1
        out.append(lo)
        k -= comb(lo, i)
    return tuple(reversed(out))


def _colex_positions(k: int, r: int) -> np.ndarray:
    """The r-subsets of range(k) in colex order, one row each: those with
    top element t are the (r-1)-subsets of range(t), then t."""
    pos = np.zeros((1, 0), dtype=np.min_scalar_type(k))
    for i in range(1, r + 1):  # the empty piece stands in when r > k
        pos = np.concatenate([np.zeros((0, i), dtype=pos.dtype)] + [
            np.column_stack((pos[:comb(t, i - 1)],
                             np.full(comb(t, i - 1), t, dtype=pos.dtype)))
            for t in range(i - 1, k - r + i)])
    return pos


@lru_cache(maxsize=None)
def subsets_colex(n: int, r: int) -> tuple:
    """All r-subsets of range(n) in colex order (index = rank)."""
    return tuple(zip(*_colex_positions(n, r).T.tolist())) if r else ((),)


@lru_cache(maxsize=None)
def _rank_index(n: int, r: int) -> dict:
    return {s: i for i, s in enumerate(subsets_colex(n, r))}


def _colex_ranks(sets: np.ndarray, r: int) -> np.ndarray:
    """Global colex ranks of the r-subsets of each row of increasing
    vertices, in local colex order, summed from a C(v, i) table (of Python
    ints if a rank may pass int64)."""
    top = int(sets.max(initial=0)) + 1
    binom = np.array([[comb(v, i) for i in range(1, r + 1)]
                      for v in range(top)],
                     dtype=object if comb(top, min(r, top // 2)) >> 63
                     else np.int64)
    pos = _colex_positions(sets.shape[1], r)
    ranks = np.zeros((len(sets), len(pos)), dtype=binom.dtype)
    for i in range(r):
        ranks += binom[sets[:, pos[:, i]], i]
    return ranks


@lru_cache(maxsize=None)
def induced_rank_table(n: int, h: int, r: int) -> np.ndarray:
    """Global-rank layout of induced subgraphs, one row per h-subset.

    Row i (the i-th h-subset D of range(n) in colex order) lists, in
    local colex order, the global ranks of the C(h,r) r-subsets of D.
    Extracting those bits of an edge_mask yields the induced mask on D.
    """
    arr = _colex_ranks(_colex_positions(n, h), r)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RUniformGraph:
    """An r-graph on n labeled vertices 0..n-1."""

    n: int
    r: int
    edge_mask: int

    def __post_init__(self):
        if self.r < 1 or self.n < 0:
            raise ParameterError(f"need r >= 1 and n >= 0, got r={self.r}, n={self.n}")
        # n < r is allowed (edgeless: the mask space is empty).
        nbits = comb(self.n, self.r)
        if self.edge_mask < 0 or self.edge_mask >> nbits:
            raise ParameterError(
                f"edge_mask has set bits outside the C({self.n},{self.r}) layout"
            )

    @property
    def num_edges(self) -> int:
        return self.edge_mask.bit_count()

    def edges(self) -> tuple:
        all_subs = subsets_colex(self.n, self.r)
        m = self.edge_mask
        out = []
        while m:
            k = (m & -m).bit_length() - 1
            out.append(all_subs[k])
            m &= m - 1
        return tuple(out)


def graph_from_edges(n: int, r: int, edges) -> RUniformGraph:
    mask = 0
    for e in edges:
        mask |= 1 << rank_subset(tuple(sorted(e)), r)
    return RUniformGraph(n, r, mask)


def complete_graph(n: int, r: int) -> RUniformGraph:
    return RUniformGraph(n, r, (1 << comb(n, r)) - 1)


def _induced_mask(G: RUniformGraph, d: tuple, local) -> int:
    """Edge mask of G[d], d sorted; local = subsets_colex(len(d), G.r)."""
    mask = 0
    for j, loc in enumerate(local):
        if G.edge_mask >> rank_subset(tuple(d[i] for i in loc), G.r) & 1:
            mask |= 1 << j
    return mask


def permute_graph(G: RUniformGraph, sigma) -> RUniformGraph:
    """Relabel vertices by v -> sigma[v]."""
    sig = tuple(sigma)
    if sorted(sig) != list(range(G.n)):
        raise ParameterError(f"{sigma} is not a permutation of 0..{G.n - 1}")
    idx = _rank_index(G.n, G.r)
    mask = 0
    for e in G.edges():
        mask |= 1 << idx[tuple(sorted(sig[v] for v in e))]
    return RUniformGraph(G.n, G.r, mask)


def canonical_bound(r: int) -> int:
    return CANONICAL_BOUND_GRAPHS if r == 2 else CANONICAL_BOUND_HYPERGRAPHS


def _check_bound(G: RUniformGraph, what: str) -> None:
    bound = canonical_bound(G.r)
    if G.n > bound:
        raise SizeLimitError(
            f"{what} limited to n <= {bound} for r={G.r}, got n={G.n}"
        )


@lru_cache(maxsize=1 << 14)
def _orbit_masks(n: int, r: int, mask: int) -> frozenset:
    """The one walk over the n! relabelings of a labeled graph."""
    idx = _rank_index(n, r)
    edges = RUniformGraph(n, r, mask).edges()
    out = set()
    for sig in itertools.permutations(range(n)):
        cur = 0
        for e in edges:
            cur |= 1 << idx[tuple(sorted(sig[v] for v in e))]
        out.add(cur)
    return frozenset(out)


def orbit_masks(G: RUniformGraph) -> frozenset:
    """All labeled edge_masks isomorphic to G (the relabeling orbit)."""
    _check_bound(G, "orbit enumeration")
    return _orbit_masks(G.n, G.r, G.edge_mask)


def canonical_code(G: RUniformGraph) -> int:
    """Exact canonical form: the least mask of G's orbit (small n only);
    two graphs of one order and r are isomorphic iff their codes agree."""
    _check_bound(G, "canonicalization")
    return min(_orbit_masks(G.n, G.r, G.edge_mask))


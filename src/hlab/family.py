"""Forbidden families: membership of Forb(F) and induced-copy counting.

Counting is by vertex subset: a subset D counts once when G[D] is
isomorphic to some family member, regardless of how many members or
embeddings realize it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ConstructionError, ParameterError
from .hypergraph import (
    RUniformGraph,
    canonical_code,
    induced_rank_table,
    orbit_masks,
    rank_subset,
    subsets_colex,
)


@dataclass(frozen=True)
class ForbiddenFamily:
    """Deduplicated family of r-graphs with minimum order t."""

    members: tuple
    r: int
    t: int

    def orders(self) -> tuple:
        return tuple(sorted({m.n for m in self.members}))

    def members_of_order(self, h: int) -> tuple:
        return tuple(m for m in self.members if m.n == h)


def normalize_family(raw) -> ForbiddenFamily:
    """Deduplicate by canonical code, order by (order, code), compute t."""
    graphs = list(raw)
    if not graphs:
        raise ConstructionError("family must be nonempty")
    r = graphs[0].r
    if any(g.r != r for g in graphs):
        raise ConstructionError("family members must share uniformity r")
    if any(g.n < r for g in graphs):
        raise ConstructionError("family members need at least r vertices")
    seen = {}
    for g in graphs:
        code = canonical_code(g)
        seen.setdefault((g.n, code.code), g)
    members = tuple(seen[k] for k in sorted(seen))
    t = min(g.n for g in members)
    return ForbiddenFamily(members=members, r=r, t=t)


@lru_cache(maxsize=None)
def _order_orbit(r: int, h: int, member_masks: tuple) -> frozenset:
    """Union of labeled-mask orbits of all members with n = h."""
    out = set()
    for mask in member_masks:
        out |= orbit_masks(RUniformGraph(h, r, mask))
    return frozenset(out)


def family_orbit(fam: ForbiddenFamily, h: int) -> frozenset:
    masks = tuple(sorted(m.edge_mask for m in fam.members_of_order(h)))
    return _order_orbit(fam.r, h, masks)


@lru_cache(maxsize=None)
def _orbit_lookup(r: int, h: int, member_masks: tuple) -> np.ndarray:
    """Boolean table over all 2^C(h,r) small masks marking family members."""
    nbits = len(subsets_colex(h, r))
    table = np.zeros(1 << nbits, dtype=bool)
    for mask in _order_orbit(r, h, member_masks):
        table[mask] = True
    table.setflags(write=False)
    return table


def family_orbit_lookup(fam: ForbiddenFamily, h: int) -> np.ndarray:
    masks = tuple(sorted(m.edge_mask for m in fam.members_of_order(h)))
    return _orbit_lookup(fam.r, h, masks)


def _check_uniformity(G: RUniformGraph, fam: ForbiddenFamily) -> None:
    if G.r != fam.r:
        raise ParameterError(f"uniformity mismatch: graph r={G.r}, family r={fam.r}")


def _induced_mask(G: RUniformGraph, d: tuple, local) -> int:
    mask = 0
    for j, loc in enumerate(local):
        if G.edge_mask >> rank_subset(tuple(d[i] for i in loc), G.r) & 1:
            mask |= 1 << j
    return mask


def _induced_hits(G: RUniformGraph, fam: ForbiddenFamily):
    """Vertex subsets D of G, by order then colex, with G[D] a member."""
    _check_uniformity(G, fam)
    for h in fam.orders():
        if h > G.n:
            continue
        orbit = family_orbit(fam, h)
        local = subsets_colex(h, G.r)
        for d in combinations(range(G.n), h):
            if _induced_mask(G, d, local) in orbit:
                yield d


def contains_induced(G: RUniformGraph, fam: ForbiddenFamily) -> bool:
    """True iff some vertex subset of G induces a family member (F < G)."""
    return next(_induced_hits(G, fam), None) is not None


def count_induced(G: RUniformGraph, fam: ForbiddenFamily) -> int:
    """Number of vertex subsets D with G[D] isomorphic to a member."""
    return sum(1 for _ in _induced_hits(G, fam))


def _vertex_set(vset, n: int) -> tuple:
    vset = tuple(sorted(vset))
    if len(set(vset)) != len(vset) or (vset and (vset[0] < 0 or vset[-1] >= n)):
        raise ParameterError(f"vertex set {vset} is not a subset of 0..{n - 1}")
    return vset


def _contains_columns(masks: np.ndarray, n: int, r: int, fam: ForbiddenFamily,
                      vsets) -> np.ndarray:
    """Row i: 'some member is induced inside vsets[i]', one entry per mask.

    Each h-subset's induced mask is extracted once and its hits are ORed
    into every vertex set containing the subset.
    """
    if fam.r != r:
        raise ParameterError(f"uniformity mismatch: space r={r}, family r={fam.r}")
    vsets = [_vertex_set(s, n) for s in vsets]
    cols = np.zeros((len(vsets), masks.shape[0]), dtype=bool)
    one = np.uint64(1)
    for h in fam.orders():
        owners: dict = {}
        for i, vset in enumerate(vsets):
            for sub in combinations(vset, h):
                owners.setdefault(sub, []).append(i)
        if not owners:
            continue
        lookup = family_orbit_lookup(fam, h)
        table = induced_rank_table(n, h, r)
        for sub, sets in owners.items():
            im = np.zeros(masks.shape, dtype=np.uint64)
            for j, pos in enumerate(table[rank_subset(sub, h)]):
                im |= ((masks >> np.uint64(pos)) & one) << np.uint64(j)
            hit = lookup[im]
            for i in sets:
                cols[i] |= hit
    return cols


def batch_contains(masks: np.ndarray, n: int, r: int, fam: ForbiddenFamily,
                   within: tuple | None = None) -> np.ndarray:
    """Vectorized F < G[D] over an array of uint64 edge_masks.

    ``within`` restricts the search to subsets of those vertices (the
    block-local containment of the partition lemma); None means all of
    range(n).
    """
    scope = range(n) if within is None else within
    return _contains_columns(masks, n, r, fam, [scope])[0]

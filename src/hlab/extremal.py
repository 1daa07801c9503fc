"""Partition parameter tau, witness checks, and exact ex*.

tau(F) is the largest t for which some s in 0..t admits no partition of
V(F) into s cliques and t-s independent sets (empty parts allowed).
ex*(n, F) is the largest |E| such that some base edge set E0 disjoint
from E keeps (V, E0 + X) free of induced F for every X inside E.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (ConstructionError, DegenerateGraphError,
                     FeasibilityError, InputError, ParameterError,
                     SizeLimitError)
from .family import batch_contains, normalize_family
from .hypergraph import RUniformGraph, rank_subset, subsets_colex

TAU_BOUND = 12
EXSTAR_BOUND = 6
WITNESS_EDGE_BOUND = 24
_WITNESS_MASK_BITS = 63


def _adjacency(F: RUniformGraph) -> list:
    adj = [0] * F.n
    for a, b in F.edges():
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _find_partition(adj: list, n: int, s: int, t: int) -> tuple | None:
    """A partition of 0..n-1 into s cliques then t-s independent sets,
    or None.  Backtracking over vertices in order; among empty parts of
    the same kind only the first is tried (they are interchangeable)."""
    kinds = [True] * s + [False] * (t - s)
    parts: list = [[] for _ in range(t)]

    def extend(v: int) -> bool:
        if v == n:
            return True
        tried_empty = {True: False, False: False}
        for idx, members in enumerate(parts):
            kind = kinds[idx]
            if not members:
                if tried_empty[kind]:
                    continue
                tried_empty[kind] = True
                fits = True
            elif kind:
                fits = all(adj[v] >> u & 1 for u in members)
            else:
                fits = all(not (adj[v] >> u & 1) for u in members)
            if fits:
                members.append(v)
                if extend(v + 1):
                    return True
                members.pop()
        return False

    if n == 0:
        return tuple(() for _ in range(t))
    return tuple(tuple(ms) for ms in parts) if extend(0) else None


@dataclass(frozen=True)
class TauResult:
    """t with a non-partitionable s, plus level-(t+1) partition
    witnesses for every s proving t is maximal."""

    t: int
    witness_s: int
    refutations: tuple  # refutations[s]: partition into s cliques + rest


def tau(F: RUniformGraph) -> TauResult:
    """Exact tau by descending levels from |V(F)| (all s satisfiable)."""
    if F.r != 2:
        raise ParameterError(f"tau is defined for r=2 graphs, got r={F.r}")
    if F.n > TAU_BOUND:
        raise SizeLimitError(f"tau backtracking bound is {TAU_BOUND} vertices")
    if F.n == 0:
        raise DegenerateGraphError("tau undefined on the empty vertex set")
    adj = _adjacency(F)
    above = tuple(_find_partition(adj, F.n, s, F.n) for s in range(F.n + 1))
    if any(p is None for p in above):
        raise DegenerateGraphError("level |V| must admit every s")
    for t in range(F.n - 1, 0, -1):
        found = [_find_partition(adj, F.n, s, t) for s in range(t + 1)]
        missing = [s for s, p in enumerate(found) if p is None]
        if missing:
            return TauResult(t=t, witness_s=missing[0], refutations=above)
        above = tuple(found)
    # every positive level is partitionable for all s; level 0 cannot
    # absorb a nonempty vertex set, which is the degenerate t=0 signal
    return TauResult(t=0, witness_s=0, refutations=above)


def _edge_bits(edges, n: int) -> list:
    out = []
    for e in edges:
        pair = tuple(sorted(e))
        if len(pair) != 2 or pair[0] == pair[1] or pair[0] < 0 or pair[1] >= n:
            raise InputError(f"{e} is not an edge on 0..{n - 1}")
        out.append((pair, rank_subset(pair, 2)))
    if len({b for _, b in out}) != len(out):
        raise InputError("duplicate edges")
    return out


@dataclass(frozen=True)
class WitnessResult:
    ok: bool
    counterexample: tuple | None  # an X inside E whose graph induces F


def witness_check(n: int, F: RUniformGraph, E, E0) -> WitnessResult:
    """Exhaustively test every X inside E: (V, E0 + X) has no induced F."""
    if F.r != 2:
        raise ParameterError(f"witness_check is for r=2 graphs, got r={F.r}")
    if comb(n, 2) > _WITNESS_MASK_BITS:
        raise FeasibilityError(
            f"edge masks need C(n,2) <= {_WITNESS_MASK_BITS} bits")
    e_bits = _edge_bits(E, n)
    e0_bits = _edge_bits(E0, n)
    if {b for _, b in e_bits} & {b for _, b in e0_bits}:
        raise InputError("E and E0 must be disjoint")
    if len(e_bits) > WITNESS_EDGE_BOUND:
        raise FeasibilityError(
            f"|E| = {len(e_bits)} exceeds the 2^{WITNESS_EDGE_BOUND} bound")
    fam = normalize_family([F])
    base = np.uint64(sum(1 << b for _, b in e0_bits))
    k = len(e_bits)
    split = min(k, 20)
    lows = np.zeros(1, dtype=np.uint64)
    for _, b in e_bits[:split]:
        lows = np.concatenate([lows, lows | np.uint64(1 << b)])
    for high_sel in range(1 << (k - split)):
        high = sum(1 << e_bits[split + j][1]
                   for j in range(k - split) if high_sel >> j & 1)
        masks = lows | np.uint64(base | np.uint64(high))
        hit = batch_contains(masks, n, 2, fam)
        if hit.any():
            idx = int(np.argmax(hit))
            chosen = [e_bits[j][0] for j in range(split) if idx >> j & 1]
            chosen += [e_bits[split + j][0] for j in range(k - split)
                       if high_sel >> j & 1]
            return WitnessResult(ok=False, counterexample=tuple(sorted(chosen)))
    return WitnessResult(ok=True, counterexample=None)


@dataclass(frozen=True)
class ExStarResult:
    value: int
    edges: tuple       # E, the maximized set
    base_edges: tuple  # E0, disjoint base making every X inside E safe


def _free_table(n: int, F: RUniformGraph) -> np.ndarray:
    """free[mask]: the graph with that edge mask has no induced F."""
    fam = normalize_family([F])
    nbits = comb(n, 2)
    masks = np.arange(1 << nbits, dtype=np.uint64)
    return ~batch_contains(masks, n, 2, fam)


# The low _WORD_BITS edge bits of a mask index the bits of one uint64 word.
_WORD_BITS = 6


def _feasible_table(free: np.ndarray, nbits: int) -> np.ndarray:
    """feasible[E]: some E0 inside ~E has free[E0 | X] for every X inside E.

    The table is packed in uint64 words: word h holds the 2^L entries of
    the masks h << L | y, y < 2^L, L = min(6, nbits).  Every AND (the X
    inside E) runs before every OR (the E0 outside it), and steps of one
    kind on different bits commute, so the pass takes three steps.
    First, each high bit k becomes a ternary digit, bit by bit from the
    lowest: 0 or 1 is the bit outside E and set that way in E0, 2 is the
    bit in E, the AND of its two words.  Second, inside each of the 3^H
    words (H = nbits - L), a depth-first walk over the low part E_low of
    E keeps B_E[y] = AND of word[y | X] over X inside E_low, for every y
    disjoint from E_low: B_{E+b} = B_E & (B_E >> 2^b).  Bit E_low of the
    result word is the OR of B_E over those y.  Third, from the highest
    high bit down, digits 0 and 1 are ORed into "outside E" and digit 2
    is kept as "in E".  Peak memory is a few arrays of 3^H words, 154 KB
    each at nbits = 15.
    """
    low = min(_WORD_BITS, nbits)
    width = 1 << low
    shifts = np.arange(width, dtype=np.uint64)
    table = np.bitwise_or.reduce(
        free.reshape(-1, width).astype(np.uint64) << shifts, axis=1)
    for k in range(nbits - low):
        pair = table.reshape(-1, 2, 3 ** k)
        table = np.empty((pair.shape[0], 3, 3 ** k), dtype=np.uint64)
        table[:, :2] = pair
        np.bitwise_and(pair[:, 0], pair[:, 1], out=table[:, 2])
    table = table.reshape(-1)
    out = np.zeros_like(table)
    tmp = np.empty_like(table)

    def walk(e: int, ands: np.ndarray, first: int) -> None:
        disjoint = sum(1 << y for y in range(width) if not y & e)
        np.bitwise_and(ands, np.uint64(disjoint), out=tmp)
        np.minimum(tmp, np.uint64(1), out=tmp)
        np.left_shift(tmp, np.uint64(e), out=tmp)
        np.bitwise_or(out, tmp, out=out)
        for b in range(first, low):
            grown = np.right_shift(ands, np.uint64(1 << b))
            np.bitwise_and(grown, ands, out=grown)
            walk(e | 1 << b, grown, b + 1)

    walk(0, table, 0)
    table = out
    for k in range(nbits - low):
        tern = table.reshape(2 ** k, 3, -1)
        table = np.empty((2 ** k, 2, tern.shape[2]), dtype=np.uint64)
        np.bitwise_or(tern[:, 0], tern[:, 1], out=table[:, 0])
        table[:, 1] = tern[:, 2]
    return (table.reshape(-1, 1) >> shifts & np.uint64(1)).astype(
        bool).reshape(-1)


def _submask_array(mask: int) -> np.ndarray:
    """Every submask of `mask`, ascending."""
    subs = np.zeros(1, dtype=np.int64)
    for bit in range(mask.bit_length()):
        if mask >> bit & 1:
            subs = np.concatenate([subs, subs | (1 << bit)])
    return subs


def exstar(n: int, F: RUniformGraph) -> ExStarResult:
    """Exact ex*(n, F) with a witness pair, by one subcube pass over the
    free table (see `_feasible_table`).

    The value is the largest |E| with a feasible E.  Ties return the
    colex-least E of that size, then the colex-least E0 inside ~E that
    keeps every X inside E free, found by a direct search over every
    (E0, X) pair; when that search finds none, the pass was wrong and
    ConstructionError is raised.
    """
    if F.r != 2:
        raise ParameterError(f"exstar is for r=2 graphs, got r={F.r}")
    if n > EXSTAR_BOUND:
        raise FeasibilityError(f"exstar search bound is n <= {EXSTAR_BOUND}")
    if n < 1:
        raise ParameterError("need n >= 1")
    free = _free_table(n, F)
    nbits = comb(n, 2)
    feasible = _feasible_table(free, nbits)
    if not feasible.any():
        raise DegenerateGraphError(
            "no edge set is feasible; every graph on n vertices induces F")
    sizes = np.zeros(1, dtype=np.int8)
    for _ in range(nbits):
        sizes = np.concatenate([sizes, sizes + 1])
    value = int(sizes[feasible].max())
    e_mask = int(np.flatnonzero(feasible & (sizes == value))[0])
    pairs = subsets_colex(n, 2)

    def edges_of(mask: int) -> tuple:
        return tuple(pairs[i] for i in range(nbits) if mask >> i & 1)

    bases = _submask_array(((1 << nbits) - 1) ^ e_mask)
    xs = _submask_array(e_mask)
    safe = free[bases[:, None] | xs[None, :]].all(axis=1)
    if not safe.any():
        raise ConstructionError(
            f"E = {list(edges_of(e_mask))} was marked feasible, but no base "
            "E0 outside it keeps every X inside it free of F")
    return ExStarResult(value=value, edges=edges_of(e_mask),
                        base_edges=edges_of(int(bases[np.argmax(safe)])))


def exstar_to_json_obj(res: ExStarResult) -> dict:
    return {"value": res.value, "E": [list(e) for e in res.edges],
            "E0": [list(e) for e in res.base_edges]}

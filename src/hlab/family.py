"""Forbidden families: membership of Forb(F) and induced-copy counting.

Counting is by vertex subset: a subset D counts once when G[D] is
isomorphic to some family member, regardless of how many members or
embeddings realize it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .errors import ConstructionError, ParameterError, SizeLimitError
from .hypergraph import (
    RUniformGraph,
    _induced_mask,
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
        seen.setdefault((g.n, canonical_code(g)), g)
    members = tuple(seen[k] for k in sorted(seen))
    t = min(g.n for g in members)
    return ForbiddenFamily(members=members, r=r, t=t)


@lru_cache(maxsize=None)
def family_orbit(fam: ForbiddenFamily, h: int) -> frozenset:
    """Union of labeled-mask orbits of all members with n = h."""
    out = set()
    for g in fam.members_of_order(h):
        out |= orbit_masks(g)
    return frozenset(out)


# Largest orbit lookup table, in bits of its index: 2^28 booleans (256 MB)
# still takes an 8-vertex graph member.  An order with a wider lookup runs
# the masked compare if its orbit has at most _COMPARE_MAX_ORBIT members,
# else it is refused.  A compare pass costs about 10 us on a 2^16-mask block
# (Xeon, 2 vCPUs), so a row takes 0.05 s per block at an orbit of 2,520 (a
# sparse 7-vertex 3-graph) and 0.09 s at 2^12.  Neither limit depends on n.
_LOOKUP_MAX_BITS = 28
_COMPARE_MAX_ORBIT = 1 << 12


def _lookup_bits(h: int, r: int) -> int:
    """C(h, r), the index width of the order-h lookup, when it is allowed."""
    bits = comb(h, r)
    if bits > _LOOKUP_MAX_BITS:
        raise SizeLimitError(
            f"orbit lookup table for the order-{h} members needs 2^{bits} "
            f"entries, above the limit 2^{_LOOKUP_MAX_BITS}")
    return bits


@lru_cache(maxsize=None)
def family_orbit_lookup(fam: ForbiddenFamily, h: int) -> np.ndarray:
    """Boolean table over all 2^C(h,r) small masks marking family members."""
    table = np.zeros(1 << _lookup_bits(h, fam.r), dtype=bool)
    table[list(family_orbit(fam, h))] = True
    table.setflags(write=False)
    return table


def _check_uniformity(G: RUniformGraph, fam: ForbiddenFamily) -> None:
    if G.r != fam.r:
        raise ParameterError(f"uniformity mismatch: graph r={G.r}, family r={fam.r}")


# Largest number of vertex subsets count_induced walks.  At about 11 us a
# subset (Xeon, 2 vCPUs), 2^22 subsets take about 45 s.
_COUNT_MAX_SUBSETS = 1 << 22


def count_induced(G: RUniformGraph, fam: ForbiddenFamily) -> int:
    """Number of vertex subsets D with G[D] isomorphic to a member; G
    contains a member (F < G) iff it is positive.  Refused before the
    walk when the family's orders h give more than _COUNT_MAX_SUBSETS
    subsets C(n, h) in all."""
    _check_uniformity(G, fam)
    subsets = sum(comb(G.n, h) for h in fam.orders())
    if subsets > _COUNT_MAX_SUBSETS:
        raise SizeLimitError(
            f"induced count over {subsets} vertex subsets exceeds the limit "
            f"2^{_COUNT_MAX_SUBSETS.bit_length() - 1}")
    count = 0
    for h in fam.orders():
        orbit = family_orbit(fam, h)
        local = subsets_colex(h, G.r)
        count += sum(1 for d in combinations(range(G.n), h)
                     if _induced_mask(G, d, local) in orbit)
    return count


def _vertex_set(vset, n: int) -> tuple:
    vset = tuple(sorted(vset))
    if len(set(vset)) != len(vset) or (vset and (vset[0] < 0 or vset[-1] >= n)):
        raise ParameterError(f"vertex set {vset} is not a subset of 0..{n - 1}")
    return vset


# The kernel walks the masks in blocks of 2^16 so that a row's temporaries
# (512 KiB of uint64 at most) stay in a core's L2 cache; whole 2^20-mask
# chunks ran 2-3x slower.
_BLOCK_MASKS = 1 << 16
# Masks are cut into fixed slices for the gather kernel; 2^11 entries keep
# each per-row slice table small.
_SLICE_BITS = 11
# A table gather or lookup costs about four elementwise passes; the kernel
# choice weighs passes by this.  Measured on 2^16-mask blocks, the masked
# compare stops paying at 12-14 orbit members with 2 slices and at 14-16
# with 5; this weight puts the switch at 9 and 21.
_GATHER_PASS_COST = 4


def _slice_count(n: int, r: int) -> int:
    return -(-comb(n, r) // _SLICE_BITS)


def _mask_slices(masks: np.ndarray, n: int, r: int) -> list:
    """The masks cut into uint16 slices of _SLICE_BITS bits, low slice
    first; shifted in the masks' own dtype."""
    low = np.uint16((1 << _SLICE_BITS) - 1)
    shift = masks.dtype.type
    return [(masks >> shift(q * _SLICE_BITS)).astype(np.uint16) & low
            for q in range(_slice_count(n, r))]


# The row kernels rebuild their small per-row arrays on every call: cached
# arrays first allocated in the middle of a scan kept the allocator from
# trimming freed heap, which raised the peak RSS by about 5%.
def _compare_kernel(n: int, h: int, r: int, orbit: frozenset, wanted: list):
    """Row kernel for small orbits: one masked compare per orbit member.

    Yields one hit column per h-subset rank in `wanted`.  A row's mask R is
    the OR of its global bit positions and every member g is spread onto
    those positions; G[D] is a member iff masks & R equals one of the
    spread patterns, so no induced mask is built.  The row masks and
    patterns are taken in the dtype of the masks given, which holds them.
    """
    rows = induced_rank_table(n, h, r)[wanted]
    pw = np.left_shift(np.uint64(1), rows.astype(np.uint64))
    bits = np.array([[g >> j & 1 for j in range(rows.shape[1])]
                     for g in sorted(orbit)], dtype=bool)
    row_mask = np.bitwise_or.reduce(pw, axis=1)
    spread = np.bitwise_or.reduce(
        np.where(bits[None, :, :], pw[:, None, :], np.uint64(0)), axis=2)

    def run(masks: np.ndarray):
        for mask, patterns in zip(row_mask.astype(masks.dtype, copy=False),
                                  spread.astype(masks.dtype, copy=False)):
            sel = masks & mask
            hit = sel == patterns[0]
            for g in patterns[1:]:
                hit |= sel == g
            yield hit
    return run


def _gather_kernel(n: int, h: int, r: int, lookup: np.ndarray, wanted: list):
    """Row kernel for large orbits: OR of per-slice table gathers, then lookup.

    Yields one hit column per h-subset rank in `wanted`.  tables[i, q, v]
    is the part of G[D_i]'s local mask carried by the value v of the q-th
    slice of the global mask, D_i the i-th wanted subset; touched[i] lists
    the slices row i reads.
    """
    rows = induced_rank_table(n, h, r)[wanted]
    dtype = np.min_scalar_type((1 << rows.shape[1]) - 1)
    tables = np.zeros((rows.shape[0], _slice_count(n, r), 1 << _SLICE_BITS),
                      dtype=dtype)
    values = np.arange(1 << _SLICE_BITS)
    index = np.arange(rows.shape[0])
    slice_of, offset = np.divmod(rows, _SLICE_BITS)
    for j in range(rows.shape[1]):
        bit = (values[None, :] >> offset[:, j, None]) & 1
        tables[index, slice_of[:, j]] |= (bit << j).astype(dtype)
    touched = [np.unique(q).tolist() for q in slice_of]

    def run(masks: np.ndarray):
        sliced = _mask_slices(masks, n, r)
        for table, (first, *rest) in zip(tables, touched):
            im = np.take(table[first], sliced[first])
            for q in rest:
                im |= np.take(table[q], sliced[q])
            yield np.take(lookup, im)
    return run


# A choice table is built at most this many unpacked bits at a time.
_TABLE_CHUNK_BITS = 1 << 22


def _pack_choices(bits: np.ndarray) -> np.ndarray:
    """bits[..., c] packed little-endian along the last axis, in the widest
    unsigned words that fit: the layout of a set of choices."""
    packed = np.ascontiguousarray(np.packbits(bits, axis=-1, bitorder="little"))
    return packed.view(f"u{min(packed.shape[-1], 8)}")


def _no_choices(shape: tuple, width: int) -> np.ndarray:
    """Empty sets of 2^width choices, one per entry of shape, packed as
    _pack_choices packs them; bits past 2^width are never read."""
    nbytes = -(-(1 << width) // 8)
    size = min(nbytes, 8)
    return np.zeros(shape + (nbytes // size,), dtype=f"u{size}")


def _choice_tables(n: int, h: int, r: int, orbit: frozenset, subs: list,
                   width: int):
    """Forbidden choices of the new vertex v = n-1, per row D = S + (v,).

    v is D's top vertex, so in colex order D's local mask is
    x | y << C(h-1, r): x is the parent's graph on S, read at the bits
    induced_rank_table(n-1, h-1, r)[S], and y the choice c (the edges
    through v, one bit per (r-1)-subset of range(n-1), at C(n-1, r) and
    up) read as an (r-1)-graph on S, at the choice bits
    induced_rank_table(n-1, h-1, r-1)[S], which increase.  A block leaves
    the choice bits below `width` open and sets the others in its parents,
    so y's first f_S bits, those below width, are free and the rest of
    D's local mask is fixed by the parent: the parent's own local mask on
    D, as the open bits read 0 in it.

    Returns (find, table): find(parents)[i] picks each parent's row of
    table for S_i, the row of its fixed part, and that row holds the
    choices c < 2^width whose free part makes the fixed part a member,
    packed by _pack_choices; the last row, for fixed parts of no member,
    is empty.
    """
    lo, xbits, hbits = comb(n - 1, r), comb(h - 1, r), comb(h, r)
    ranks = [rank_subset(s, h - 1) for s in subs]
    yranks = induced_rank_table(n - 1, h - 1, r - 1)[ranks]
    where = np.concatenate([induced_rank_table(n - 1, h - 1, r)[ranks],
                            lo + yranks], axis=1)
    members = np.fromiter(orbit, dtype=np.uint64, count=len(orbit))
    choices = np.arange(1 << width, dtype=np.min_scalar_type((1 << width) - 1))
    step = max(1, _TABLE_CHUNK_BITS >> width)
    keys, rows = [], []
    for i, (ys, f) in enumerate(zip(yranks, (yranks < width).sum(axis=1))):
        free = np.uint64(((1 << int(f)) - 1) << xbits)
        key, at = np.unique(members & ~free, return_inverse=True)
        y = ((members & free) >> np.uint64(xbits)).astype(np.intp)
        yv = np.zeros(1 << width, dtype=choices.dtype)
        for j, bit in enumerate(ys[:f].tolist()):
            yv |= (choices >> bit & 1) << j
        for a in range(0, len(key), step):
            member = np.zeros((min(step, len(key) - a), 1 << int(f)),
                              dtype=bool)
            sel = (at >= a) & (at < a + step)
            member[at[sel] - a, y[sel]] = True
            rows.append(_pack_choices(member[:, yv]))
        keys.append(key | np.uint64(i << hbits))
    # (row, fixed part) keys, in the narrowest integers that hold them
    dtype = np.min_scalar_type((len(subs) << hbits) - 1)
    keys = np.concatenate(keys).astype(dtype)
    table = np.concatenate(rows + [_no_choices((1,), width)])
    # a parent's fixed parts are assembled from one bit plane per bit a
    # row fixes; a bit that a row leaves open reads 0 in the parents
    slots = [j for j in range(hbits)
             if j < xbits or (yranks[:, j - xbits] >= width).any()]
    pos, plane = np.unique(where[:, slots], return_inverse=True)
    pos = pos.astype(np.uint64)[:, None]
    plane = plane.reshape(len(subs), len(slots)).T
    prefix = (np.arange(len(subs), dtype=np.uint64) << np.uint64(hbits)
              ).astype(dtype)[:, None]

    def find(parents: np.ndarray) -> np.ndarray:
        planes = (parents >> pos & np.uint64(1)).astype(dtype)
        q = np.repeat(prefix, parents.shape[0], axis=1)
        for j, col in zip(slots, plane):
            q |= planes[col] << j
        at = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
        return np.where(keys[at] == q, at, len(keys))
    return find, table


def _memo(build):
    """build(*key), run once per key from any thread and then remembered."""
    lock = threading.Lock()
    done: dict = {}

    def get(*key):
        with lock:
            if key not in done:
                done[key] = build(*key)
        return done[key]
    return get


def _contains_rows(n: int, r: int, fam: ForbiddenFamily, vsets,
                   through: int | None = None):
    """Build the row kernels; run(masks)[i]: 'some member is induced
    inside vsets[i]', one entry per mask.

    Each h-subset's row is evaluated once and its hits are ORed into every
    vertex set containing the subset; with `through`, only the h-subsets
    containing that vertex become rows.  Per order, the masked compare
    costs 1 + 2|orbit| elementwise passes per row and the sliced-table
    gather 2 * slices + 1 gather passes; the cheaper one runs, or the
    compare when the lookup is too wide (see _LOOKUP_MAX_BITS).

    With through = n-1, run(parents, width) answers for the children
    parents[j] | c << C(n-1, r) of every open choice c < 2^width of the
    new vertex's edges instead: run(parents, width)[i, j] is the set of
    the c whose child has a member inside vsets[i], packed by
    _pack_choices.  The parents carry no open bit; choice bits at width
    and above may be set in them.  A row D = S + (n-1,) splits each local
    mask as x | y << C(h-1, r) (see _choice_tables), so a parent's fixed
    part on S picks one set of member-making choices: the rows cost one
    lookup per parent, not one test per child.  The kernels, and the
    tables of each width, are built on their first call.
    """
    if fam.r != r:
        raise ParameterError(f"uniformity mismatch: space r={r}, family r={fam.r}")
    vsets = [_vertex_set(s, n) for s in vsets]
    nslices = _slice_count(n, r)
    orders = []
    for h in fam.orders():
        owners: dict = {}
        for i, vset in enumerate(vsets):
            for sub in combinations(vset, h):
                if through is None or through in sub:
                    owners.setdefault(sub, []).append(i)
        if not owners:
            continue
        orbit = family_orbit(fam, h)
        cheap = 1 + 2 * len(orbit) <= _GATHER_PASS_COST * (2 * nslices + 1)
        compare = cheap or (len(orbit) <= _COMPARE_MAX_ORBIT
                            and comb(h, r) > _LOOKUP_MAX_BITS)
        if not compare:
            _lookup_bits(h, r)  # refuses the order before anything is built
        orders.append((h, orbit, compare, owners))

    def build_kernels():
        out = []
        for h, orbit, compare, owners in orders:
            wanted = [rank_subset(sub, h) for sub in owners]
            kernel = (_compare_kernel(n, h, r, orbit, wanted) if compare else
                      _gather_kernel(n, h, r, family_orbit_lookup(fam, h),
                                     wanted))
            out.append((kernel, list(owners.values())))
        return out

    kernels = _memo(build_kernels)

    def build_tables(width):
        out = []
        for h, orbit, _, owners in orders:
            sets = list(owners.values())
            rows_of = [[row for row, s in enumerate(sets) if i in s]
                       for i in range(len(vsets))]
            out.append((_choice_tables(n, h, r, orbit,
                                       [sub[:-1] for sub in owners], width),
                        rows_of))
        return out

    tables = _memo(build_tables)

    def run_masks(masks: np.ndarray) -> np.ndarray:
        cols = np.zeros((len(vsets), masks.shape[0]), dtype=bool)
        for lo in range(0, masks.shape[0], _BLOCK_MASKS):
            block = masks[lo:lo + _BLOCK_MASKS]
            for kernel, owner_sets in kernels():
                for hit, sets in zip(kernel(block), owner_sets):
                    for i in sets:
                        cols[i, lo:lo + _BLOCK_MASKS] |= hit
        return cols

    def run_parents(parents: np.ndarray, width: int) -> np.ndarray:
        if through != n - 1:
            raise ParameterError(
                f"a block of parents extends vertex {n - 1}, "
                f"not through={through}")
        cols = _no_choices((len(vsets), parents.shape[0]), width)
        for (find, table), rows_of in tables(width):
            hits = table[find(parents)]
            for col, rows in zip(cols, rows_of):
                if rows:
                    col |= np.bitwise_or.reduce(hits[rows], axis=0)
        return cols

    def run(masks: np.ndarray, width: int | None = None) -> np.ndarray:
        return run_masks(masks) if width is None else run_parents(masks, width)
    return run


def batch_contains(masks: np.ndarray, n: int, r: int,
                   fam: ForbiddenFamily) -> np.ndarray:
    """Vectorized F < G over an array of uint64 edge_masks; one call, one
    kernel build."""
    return _contains_rows(n, r, fam, [range(n)])(masks)[0]

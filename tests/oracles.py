"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and self-contained: direct
definitions, permutation scans, full enumerations.  Nothing reuses the
library's vectorized machinery beyond the RUniformGraph container, so
agreement is meaningful.  The exceptions say so: `full_scan_histogram`
runs a predicate's batch rule over the whole mask space, the route apart
from the level walk's extension rules, and `bernoulli_masks` and
`sample_masks` give whole-mask views of `rng.bernoulli_columns`, the
sampler `mc_measure` draws its levels with, for the tests that check it
against `oracle_masks`.  `feasible_table_ternary` is a second, vectorised
ex* pass over a ternary byte table, the reference for tables too large
for the definitional `feasible_table_naive`.  `random_graph` draws from the library's scalar
`Rng`, whose streams define the draws it is compared on.
"""

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

import mpmath
import numpy as np

from hlab.hypergraph import RUniformGraph
from hlab.measure import _rule
from hlab.rng import Rng, bernoulli_columns, bernoulli_threshold, stream_keys


def colex_less(a: tuple, b: tuple) -> bool:
    """Colex comparison of distinct same-size subsets."""
    diff = max(set(a) ^ set(b))
    return diff in b


def unrank_subset(k: int, r: int) -> tuple:
    """The r-subset of colex rank k: each element, from the largest down,
    is the largest a with C(a, i) <= what is left of k."""
    out = []
    for i in range(r, 0, -1):
        a = i - 1
        while comb(a + 1, i) <= k:
            a += 1
        out.append(a)
        k -= comb(a, i)
    return tuple(reversed(out))


def naive_rank(subset: tuple, r: int) -> int:
    """Position of subset among all r-subsets in colex order, by scan."""
    top = max(subset) + 1
    return sum(1 for t in combinations(range(top), r)
               if t != subset and colex_less(t, subset))


def is_induced_copy(G: RUniformGraph, dverts: tuple, H: RUniformGraph) -> bool:
    """Some bijection dverts -> V(H) matches edges and non-edges exactly."""
    k = len(dverts)
    if k != H.n or G.r != H.r:
        return False
    g_edges = set(G.edges())
    h_edges = set(H.edges())
    for perm in permutations(range(k)):
        good = True
        for idx in combinations(range(k), G.r):
            dom = tuple(sorted(dverts[i] for i in idx))
            img = tuple(sorted(perm[i] for i in idx))
            if (dom in g_edges) != (img in h_edges):
                good = False
                break
        if good:
            return True
    return False


def induced_subgraph(G: RUniformGraph, vertices) -> RUniformGraph:
    """G[D] with D relabelled 0..|D|-1 in increasing order, edge by edge."""
    pos = {v: i for i, v in enumerate(sorted(vertices))}
    mask = 0
    for e in G.edges():
        if all(v in pos for v in e):
            mask |= 1 << naive_rank(tuple(pos[v] for v in e), G.r)
    return RUniformGraph(len(pos), G.r, mask)


def naive_count_induced(G: RUniformGraph, members) -> int:
    members = list(members)
    total = 0
    for h in sorted({m.n for m in members}):
        for d in combinations(range(G.n), h):
            if any(is_induced_copy(G, d, m) for m in members if m.n == h):
                total += 1
    return total


def naive_contains(G: RUniformGraph, members, within=None,
                   through=None) -> bool:
    """Some member is induced on vertices of G (of `within` when given),
    on a vertex set containing `through` when that is given."""
    verts = range(G.n) if within is None else sorted(within)
    return any(is_induced_copy(G, d, m)
               for m in members for d in combinations(verts, m.n)
               if through is None or through in d)


def naive_graph(obj: dict) -> RUniformGraph:
    """A graph from its JSON form, each edge placed by naive_rank."""
    r = obj["r"]
    mask = 0
    for e in obj["edges"]:
        mask |= 1 << naive_rank(tuple(sorted(e)), r)
    return RUniformGraph(obj["n"], r, mask)


def naive_satisfies(obj: dict, G: RUniformGraph) -> bool:
    """G lies in the class a JSON predicate descriptor names, by definition."""
    kind = obj["kind"]
    if kind == "min_edges":
        return G.edge_mask.bit_count() >= obj["k"]
    if kind == "max_edges":
        return G.edge_mask.bit_count() <= obj["k"]
    if kind == "explicit":
        return G.edge_mask in obj["masks"]
    if kind == "intersection":
        return all(naive_satisfies(q, G) for q in obj["parts"])
    if kind == "complement":
        return not naive_satisfies(obj["inner"], G)
    found = naive_contains(G, [naive_graph(g) for g in obj["family"]],
                           obj.get("within"))
    if kind == "contains":
        return found
    if kind == "forb":
        return not found
    raise ValueError(f"unknown predicate kind {kind!r}")


def _beta_quantile(a: int, b: int, target, rel: float = 2.0 ** -60):
    """x with I_x(a, b) = target, by bisection on mpmath's regularized
    incomplete beta function, to relative width `rel`."""
    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    while hi - lo > rel * hi:
        mid = (lo + hi) / 2
        if mpmath.betainc(a, b, 0, mid, regularized=True) < target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def log2_oracle(x) -> Decimal:
    """log2 x of a positive rational a/b, to 150 significant digits: the
    quotient, then its log, in mpmath at 640 bits more than a and b have.
    A quotient x != 1 is at least 2^-L away from 1, L the longer bit
    length, so its log keeps 640 bits however close to 1 it is."""
    x = Fraction(x)
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    with mpmath.workprec(640 + bits):
        value = mpmath.log(mpmath.mpf(x.numerator) / x.denominator, 2)
        return Decimal(mpmath.nstr(value, 150))


def clopper_pearson_bisect(hits: int, samples: int, level: float) -> tuple:
    """Clopper-Pearson bounds from their definition: lo is the p with
    P(Bin(samples, p) >= hits) = alpha/2, hi the p with
    P(Bin(samples, p) <= hits) = alpha/2, read through
    P(Bin(n, p) >= k) = I_p(k, n - k + 1)."""
    alpha = mpmath.mpf(1.0 - level)
    with mpmath.workprec(96):
        lo = 0.0 if hits == 0 else _beta_quantile(
            hits, samples - hits + 1, alpha / 2)
        hi = 1.0 if hits == samples else _beta_quantile(
            hits + 1, samples - hits, 1 - alpha / 2)
    return lo, hi


def substream_blocks(seed: int, first_stream: int, count: int,
                     draws: int) -> np.ndarray:
    """Row i: the first `draws` outputs of substream first_stream + i, as
    the whole (count x draws) matrix, from the closed form the generator
    documents (key = mix64(seed ^ mix64(stream * GAMMA_STREAM)), output j
    = mix64(key ^ mix64(j * GAMMA_COUNTER)), j = 1, 2, ...)."""
    def mix(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    streams = np.arange(first_stream, first_stream + count, dtype=np.uint64)
    keys = mix(np.uint64(seed) ^ mix(streams * np.uint64(0x9E3779B97F4A7C15)))
    ctr = np.arange(1, draws + 1, dtype=np.uint64) * np.uint64(0xD1B54A32D192ED03)
    return mix(keys[:, None] ^ mix(ctr)[None, :])


def oracle_masks(n: int, r: int, p, seed: int, count: int,
                 first_stream: int) -> np.ndarray:
    """G(n,p) masks built from the whole substream_blocks matrix: bit j of
    mask i is output j+1 of substream first_stream + i, below p * 2^64."""
    draws = substream_blocks(seed, first_stream, count, comb(n, r))
    bits = draws < np.uint64(p * 2**64 // 1) if p < 1 else (
        np.ones(draws.shape, dtype=bool))
    shifts = np.arange(draws.shape[1], dtype=np.uint64)
    return (bits.astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)


def bernoulli_masks(seed: int, first_stream: int, count: int, draws: int,
                    threshold: int) -> np.ndarray:
    """rng.bernoulli_columns over columns [0, draws) of count new masks,
    mask i on substream first_stream + i."""
    keys = stream_keys(seed, np.arange(first_stream, first_stream + count))
    return bernoulli_columns(keys, np.zeros(count, dtype=np.uint64), 0, draws,
                             threshold)


def sample_masks(n: int, r: int, p, seed: int, count: int,
                 first_stream: int = 0) -> np.ndarray:
    """Masks of count G(n,p) draws by rng.bernoulli_columns, sample i on
    substream first_stream + i: every bit mc_measure draws for it."""
    return bernoulli_masks(seed, first_stream, count, comb(n, r),
                           bernoulli_threshold(p))


def full_scan_histogram(pred, n: int, r: int) -> list:
    """hist[e]: masks of the (n, r) space with e edges that pred's batch
    rule accepts, all 2^C(n,r) masks in one array."""
    masks = np.arange(1 << comb(n, r), dtype=np.uint64)
    pops = np.bitwise_count(masks[_rule(pred, n, r)(masks)])
    return np.bincount(pops, minlength=comb(n, r) + 1).tolist()


def vertex_levels(n: int, r: int) -> list:
    """(lo, hi) per vertex level k = 0..n: the colex bits of the edges
    through vertex k-1, listed one by one; the empty range at k = 0."""
    levels, lo = [(0, 0)], 0
    for k in range(1, n + 1):
        width = sum(1 for t in combinations(range(k), r) if k - 1 in t)
        levels.append((lo, lo + width))
        lo += width
    return levels


def random_below(rng, n: int) -> int:
    """Uniform integer in [0, n) from rng's next outputs, by rejection:
    an output at or past the largest multiple of n under 2^64 is redrawn,
    so the draw is unbiased."""
    if n <= 0:
        raise ValueError("random_below needs n >= 1")
    lim = ((1 << 64) // n) * n
    while True:
        u = rng.next_u64()
        if u < lim:
            return u % n


def shuffle_scalar(rng, items: list) -> None:
    """Fisher-Yates from the top, one `random_below` draw per position."""
    for i in range(len(items) - 1, 0, -1):
        j = random_below(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def packing_scalar(r: int, m: int, n: int, seed: int, stream: int = 0,
                   bite=Fraction(1, 10), rounds: int = 0) -> tuple:
    """Sorted blocks of one seed's packing on Rng(seed, stream), drawn one
    output at a time: `rounds` bites of one Bernoulli(bite) draw per
    m-subset in colex order, each keeping the sampled blocks that meet no
    covered r-subset and no block kept earlier in the round; then every
    m-subset in `shuffle_scalar` order that meets no covered r-subset."""
    rng = Rng(seed, stream)
    subs = sorted(combinations(range(n), m), key=lambda b: b[::-1])
    shadows = [set(combinations(b, r)) for b in subs]
    threshold = Fraction(bite) * 2**64 // 1
    covered, blocks = set(), []
    for _ in range(rounds):
        draws = [rng.next_u64() for _ in subs]
        marks = set()
        for ci, u in enumerate(draws):
            if u < threshold and not shadows[ci] & (covered | marks):
                marks |= shadows[ci]
                blocks.append(subs[ci])
        covered |= marks
    order = list(range(len(subs)))
    shuffle_scalar(rng, order)
    for ci in order:
        if not shadows[ci] & covered:
            covered |= shadows[ci]
            blocks.append(subs[ci])
    return tuple(sorted(blocks))


def naive_measure(n: int, r: int, p, sat) -> Fraction:
    """Sum of graph probabilities over satisfying masks, one by one."""
    p = Fraction(p)
    nbits = comb(n, r)
    total = Fraction(0)
    for mask in range(1 << nbits):
        if sat(RUniformGraph(n, r, mask)):
            e = mask.bit_count()
            total += p ** e * (1 - p) ** (nbits - e)
    return total


def naive_level_histograms(n: int, r: int, sat) -> list:
    """hists[k][e]: masks of the (k, r) space with e edges whose graph
    satisfies sat, for k = 0..n, each mask tested on its own."""
    hists = []
    for k in range(n + 1):
        nbits = comb(k, r)
        hist = [0] * (nbits + 1)
        for mask in range(1 << nbits):
            if sat(RUniformGraph(k, r, mask)):
                hist[mask.bit_count()] += 1
        hists.append(hist)
    return hists


def triangle_free_measure(n: int, p) -> Fraction:
    """Pr[no fully-present triple] by inclusion-exclusion over triples."""
    p = Fraction(p)
    tris = list(combinations(range(n), 3))
    total = Fraction(0)
    for sel in range(1 << len(tris)):
        edges = set()
        for i, t in enumerate(tris):
            if sel >> i & 1:
                edges.update(tuple(sorted(e)) for e in combinations(t, 2))
        total += (-1) ** sel.bit_count() * p ** len(edges)
    return total


def uncovered_rsets(r: int, n: int, blocks) -> list:
    """The r-subsets of range(n) lying inside no block, in lexicographic order."""
    covered = {c for b in blocks for c in combinations(b, r)}
    return [c for c in combinations(range(n), r) if c not in covered]


def max_packing(r: int, m: int, n: int) -> int:
    """Branch-and-bound maximum number of pairwise r-set-disjoint blocks."""
    blocks = [frozenset(combinations(b, r))
              for b in combinations(range(n), m)]
    per_block = comb(m, r)
    total_rsets = comb(n, r)
    best = 0

    def extend(i: int, used: frozenset, count: int) -> None:
        nonlocal best
        best = max(best, count)
        if count + (total_rsets - len(used)) // per_block <= best:
            return
        for j in range(i, len(blocks)):
            if not (blocks[j] & used):
                extend(j + 1, used | blocks[j], count + 1)

    extend(0, frozenset(), 0)
    return best


def partitionable(G: RUniformGraph, s: int, t: int) -> bool:
    """Brute force over all assignments of vertices to t labeled parts;
    parts 0..s-1 must be cliques, the rest independent sets."""
    n = G.n
    if t == 0:
        return n == 0
    edges = set(G.edges())
    for assign in product(range(t), repeat=n):
        ok = True
        for a in range(n):
            for b in range(a + 1, n):
                if assign[a] == assign[b]:
                    if ((a, b) in edges) != (assign[a] < s):
                        ok = False
                        break
            if not ok:
                break
        if ok:
            return True
    return False


def check_partition(F: RUniformGraph, parts, s: int) -> bool:
    """True iff parts is a partition of V(F) whose first s parts are
    cliques and the rest independent sets."""
    if sorted(v for part in parts for v in part) != list(range(F.n)):
        return False
    edges = set(F.edges())
    return all(((a, b) in edges) == (idx < s)
               for idx, part in enumerate(parts)
               for a, b in combinations(sorted(part), 2))


def tau_exhaustive(G: RUniformGraph) -> int | None:
    """Max t with a non-partitionable s, by full descent; None if every
    level is partitionable (empty vertex set)."""
    for t in range(G.n, -1, -1):
        if any(not partitionable(G, s, t) for s in range(t + 1)):
            return t
    return None


def free_table_naive(n: int, F: RUniformGraph) -> list:
    """free[mask]: the 2-graph with that edge mask has no induced F."""
    nbits = comb(n, 2)
    return [not naive_contains(RUniformGraph(n, 2, mask), [F])
            for mask in range(1 << nbits)]


def submasks(mask: int) -> list:
    subs = [0]
    b = mask
    while b:
        low = b & -b
        subs += [s | low for s in subs]
        b ^= low
    return subs


def feasible_table_naive(free, nbits: int) -> list:
    """feasible[E] by its definition: some E0 inside ~E has free[E0 | X]
    for every X inside E."""
    full = (1 << nbits) - 1
    return [any(all(free[e0 | x] for x in submasks(e))
                for e0 in submasks(full ^ e))
            for e in range(1 << nbits)]


def feasible_table_ternary(free: np.ndarray, nbits: int) -> np.ndarray:
    """feasible[E] by a pass over a ternary byte table, about 3^nbits
    bytes.  A first pass, bit by bit from the low bit, turns each binary
    digit of the mask into a ternary one: 0 or 1 is the bit outside E and
    set that way in E0; 2 is the bit in E, the AND of its two values.  A
    second pass, from the high bit, ORs digits 0 and 1 into "outside E"
    and keeps digit 2 as "in E"; as it runs after all of the first, E0 is
    chosen once for every X."""
    table = np.asarray(free, dtype=bool)
    for k in range(nbits):
        low = table.reshape(-1, 2, 3 ** k)
        table = np.empty((low.shape[0], 3, 3 ** k), dtype=bool)
        table[:, :2] = low
        np.logical_and(low[:, 0], low[:, 1], out=table[:, 2])
    for k in range(nbits):
        tern = table.reshape(2 ** k, 3, -1)
        table = np.empty((2 ** k, 2, tern.shape[2]), dtype=bool)
        np.logical_or(tern[:, 0], tern[:, 1], out=table[:, 0])
        table[:, 1] = tern[:, 2]
    return table.reshape(-1)


def graph_classes(n: int) -> list:
    """One 2-graph on n vertices per isomorphism class: the least edge
    mask of each class, in increasing order."""
    pairs = [unrank_subset(k, 2) for k in range(comb(n, 2))]
    seen, out = set(), []
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        out.append(RUniformGraph(n, 2, mask))
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        for sigma in permutations(range(n)):
            seen.add(sum(1 << naive_rank(tuple(sorted((sigma[a], sigma[b]))), 2)
                         for a, b in edges))
    return out


def exstar_witness_exhaustive(n: int, F: RUniformGraph) -> tuple:
    """(ex*, E, E0) by a full scan over every (E, E0) pair with a
    precomputed free table; E is the colex-least edge set of the largest
    feasible size and E0 the colex-least base that works for it.  Masks
    are read in colex rank order, so colex order is integer order."""
    nbits = comb(n, 2)
    free = free_table_naive(n, F)
    full = (1 << nbits) - 1
    best = (-1, None, None)
    for e_mask in range(1 << nbits):
        if e_mask.bit_count() <= best[0]:
            continue
        xs = submasks(e_mask)
        for e0 in sorted(submasks(full ^ e_mask)):
            if all(free[e0 | x] for x in xs):
                best = (e_mask.bit_count(), e_mask, e0)
                break
    return best


def exstar_exhaustive(n: int, F: RUniformGraph) -> int:
    return exstar_witness_exhaustive(n, F)[0]


def max_edges_clique_free(n: int, k: int) -> int:
    """Largest edge count among graphs with no k vertices all adjacent."""
    best = 0
    for mask in range(1 << comb(n, 2)):
        G = RUniformGraph(n, 2, mask)
        edges = set(G.edges())
        if any(all(tuple(sorted(e)) in edges for e in combinations(c, 2))
               for c in combinations(range(n), k)):
            continue
        best = max(best, mask.bit_count())
    return best


@lru_cache(maxsize=None)
def _member_sets(n: int, r: int, mask: int, members: tuple,
                 dsets: tuple) -> tuple:
    """Whether some member is induced inside each vertex set of dsets."""
    G = RUniformGraph(n, r, mask)
    return tuple(naive_contains(G, members, within=d) for d in dsets)


def naive_theta_scan(n: int, r: int, p, sat, dsets, members) -> tuple:
    """Mask by mask: (mu(A), theta_D for each D of dsets, the sum over the
    masks of A of each mask's probability times its number of member sets,
    and (count, mask) for the first mask of A with the most member sets,
    None when A is empty)."""
    p = Fraction(p)
    nbits = comb(n, r)
    mu, weighted = Fraction(0), Fraction(0)
    theta = [Fraction(0)] * len(dsets)
    best = None
    for mask in range(1 << nbits):
        if not sat(RUniformGraph(n, r, mask)):
            continue
        e = mask.bit_count()
        w = p ** e * (1 - p) ** (nbits - e)
        hits = _member_sets(n, r, mask, tuple(members), tuple(dsets))
        mu += w
        weighted += w * sum(hits)
        theta = [t + w if hit else t for t, hit in zip(theta, hits)]
        if best is None or sum(hits) > best[0]:
            best = (sum(hits), mask)
    return mu, tuple(theta), weighted, best


def random_graph(n: int, r: int, p, rng: Rng) -> RUniformGraph:
    """G(n,p) draw: bit k independently present, consuming rng in rank order."""
    p = Fraction(p)
    threshold = bernoulli_threshold(p)
    nbits = comb(n, r)
    if nbits == 0:
        return RUniformGraph(n, r, 0)
    draws = np.array([rng.next_u64() for _ in range(nbits)], dtype=np.uint64)
    if threshold >= 1 << 64:
        bits = np.ones(nbits, dtype=bool)
    else:
        bits = draws < np.uint64(threshold)
    packed = np.packbits(bits, bitorder="little").tobytes()
    return RUniformGraph(n, r, int.from_bytes(packed, "little"))


def naive_partition_cells(n: int, r: int, p, sat, blocks, members) -> dict:
    """Cell measures keyed by containment bit-pattern, mask by mask."""
    p = Fraction(p)
    nbits = comb(n, r)
    cells: dict = {}
    for mask in range(1 << nbits):
        G = RUniformGraph(n, r, mask)
        if not sat(G):
            continue
        pattern = 0
        for i, block in enumerate(blocks):
            if naive_contains(G, members, block):
                pattern |= 1 << i
        e = mask.bit_count()
        w = p ** e * (1 - p) ** (nbits - e)
        cells[pattern] = cells.get(pattern, Fraction(0)) + w
    return cells

"""Partial Steiner systems (r,m,n): construction and validation.

r-subsets are named by colex rank.  A packing is one greedy scan of
candidate m-subsets against a byte table of covered ranks; validation
and the maximality search rank whole blocks at once.  All constructors
are deterministic functions of (seed, parameters).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb

import numpy as np

from .codec import _json_int, load_json
from .errors import (ConstructionError, ParameterError, ParseError,
                     SizeLimitError)
from .hypergraph import (_colex_positions, _colex_ranks, induced_rank_table,
                         subsets_colex, unrank_subset)
from .rng import (_swap, bernoulli_threshold, raw_u64_rows, seed_keys,
                  shuffle_targets)

DEFAULT_BITE = Fraction(1, 10)
DEFAULT_ROUNDS = 10
# Largest table a Steiner command builds, in entries: the r-subsets of a
# block that verification walks (C(m,r) x r vertices) and a packing's rank
# rows (C(n,m) x C(m,r) ranks).  A (2,3,200) packing holds 3,940,200 ranks:
# 14 s and 617 MB; (2,3,300) took 55 s and 2.0 GB.
_TABLE_MAX_BITS = 22
# Random outputs a search draws per chunk of seeds (at least one seed).
_CHUNK_DRAWS = 1 << 18
# Fewest seeds of a greedy chunk that are packed in lockstep.  A lockstep
# step costs about 10-15 us of numpy calls for all its seeds, a seed's
# own scan 0.2-0.3 us per candidate: on 2 vCPUs the two broke even at
# 48-64 seeds a chunk over eleven (r, m, n) from (1,2,20) and (2,3,7) to
# (2,6,10) and (4,6,9), and lockstep won in each at 96 seeds.
_LOCKSTEP_SEEDS = 96
# Most seeds one search tries: it keeps one d per seed.
MAX_RESTARTS = 1 << 24


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    d: int
    covered: int
    uncovered_fraction: Fraction
    violations: tuple  # r-subsets covered more than once
    structural: tuple = ()  # malformed-block messages


def verify_system(r: int, m: int, n: int, blocks) -> VerifyReport:
    """Check the Steiner property on raw blocks; never raises.  Ranks are
    taken over the used vertices, relabelled 0..u-1 in order, and a rank
    seen twice is read back from the first block holding it."""
    blocks = [tuple(b) for b in blocks]
    structural, good = [], []
    for b in blocks:
        if len(b) != m or len(set(b)) != m:
            structural.append(f"block {b} is not an m-set with m={m}")
        elif (sorted(b) != list(b) or b[0] < 0 or b[-1] >= n
              or not all(hasattr(v, "__index__") for v in b)):
            structural.append(f"block {b} not a sorted subset of 0..{n - 1}")
        else:
            good.append(b)
    dtype = object if n > 1 << 63 else np.int64  # vertices past int64
    sets = np.array(good, dtype=dtype).reshape(len(good), m)
    labels = np.unique(sets, return_inverse=True)[1].reshape(sets.shape)
    ranks = _colex_ranks(labels, r)
    seen, first, counts = np.unique(ranks, return_index=True,
                                    return_counts=True)
    block, local = np.divmod(first[counts > 1], ranks.shape[1])
    twice = sets[block[:, None], _colex_positions(m, r)[local]]
    violations = tuple(sorted(map(tuple, twice.tolist())))
    covered = len(seen)
    total = comb(n, r)
    return VerifyReport(
        valid=not violations and not structural,
        d=len(blocks),
        covered=covered,
        uncovered_fraction=Fraction(total - covered, total) if total else Fraction(0),
        violations=violations,
        structural=tuple(structural),
    )


@dataclass(frozen=True)
class SteinerSystem:
    """A validated partial Steiner system; construction rejects invalid."""

    r: int
    m: int
    n: int
    blocks: tuple

    def __post_init__(self):
        _check_params(self.r, self.m, self.n)
        report = verify_system(self.r, self.m, self.n, self.blocks)
        if not report.valid:
            raise ConstructionError(
                f"not a partial Steiner system: violations={report.violations} "
                f"structural={report.structural}"
            )

    @property
    def d(self) -> int:
        return len(self.blocks)

    @property
    def covered(self) -> int:
        return self.d * comb(self.m, self.r)

    @property
    def uncovered_fraction(self) -> Fraction:
        total = comb(self.n, self.r)
        return Fraction(total - self.covered, total)

    def covered_table(self) -> np.ndarray:
        """Boolean column over the C(n,r) r-subsets: covered by a block."""
        table = np.zeros(comb(self.n, self.r), dtype=bool)
        blocks = np.array(self.blocks, dtype=np.int64)
        table[_colex_ranks(blocks.reshape(self.d, self.m), self.r)] = True
        return table


def _check_table(what: str, a: int, b: int, c: int) -> None:
    if (size := comb(a, b) * c) > 1 << _TABLE_MAX_BITS:
        raise SizeLimitError(f"{what} of C({a},{b}) x {c} = {size} entries "
                             f"exceeds the limit 2^{_TABLE_MAX_BITS}")


def _check_params(r: int, m: int, n: int) -> None:
    if not r < m <= n:
        raise ParameterError(f"need r < m <= n, got (r={r}, m={m}, n={n})")
    if r < 1:
        raise ParameterError("need r >= 1")
    _check_table("block layout", m, r, r)


def _scan(rows: list, subs: tuple, ncov: int, candidates) -> list:
    """Blocks of one greedy scan: each candidate m-subset, by colex rank,
    whose r-subsets (rows[ci]) are all still uncovered, in scan order."""
    covered = bytearray(ncov)
    blocks = []
    for ci in candidates:
        row = rows[ci]
        for k in row:
            if covered[k]:
                break
        else:
            for k in row:
                covered[k] = 1
            blocks.append(subs[ci])
    return blocks


def _lockstep(table: np.ndarray, ncov: int, targets: np.ndarray) -> tuple:
    """Greedy packings of a chunk of seeds in lockstep, one numpy step per
    swap and per scan position for all seeds at once: (sizes, order), the
    d of each seed and order[p, i], the candidate at position p of seed
    i's shuffled scan.  targets, one `shuffle_targets` row per seed, is
    overwritten."""
    seeds, size = len(targets), len(table)
    lane = np.arange(seeds)
    order = np.empty((size, seeds), dtype=np.intp)
    order[:] = np.arange(size)[:, None]
    flat = order.reshape(-1)
    # Swap t of seed i exchanges positions size-1-t and targets[i, t]; the
    # second, as an index into flat, is targets[i, t] * seeds + i.
    where = targets.view(np.intp)
    where *= seeds
    where += lane[:, None]
    for row, at in zip(order[:0:-1], where.T):
        taken = flat[at]
        flat[at] = row
        row[:] = taken
    # Rank k of seed i is covered[k * seeds + i]; one row of idx per
    # r-subset of the candidates, as numpy reduces such rows fastest.
    ranks = np.ascontiguousarray(table.T) * seeds
    covered = np.zeros(ncov * seeds, dtype=bool)
    idx = np.empty((len(ranks), seeds), dtype=np.intp)
    for ci in order:
        np.take(ranks, ci, axis=1, out=idx)
        idx += lane
        free = ~covered[idx].any(axis=0)
        covered[idx[:, free]] = True
    hits = np.count_nonzero(covered.reshape(ncov, seeds), axis=0)
    return (hits // len(ranks)).tolist(), order


def _packings(r: int, m: int, n: int, seeds: range, bite: Fraction,
              rounds: int):
    """Each chunk's packings, unverified, in seed order: (sizes, blocks),
    the d of each seed of the chunk and the sorted blocks of its first
    seed with the largest d.  A packing is `rounds` random bites, then
    greedy completion (with rounds=0, greedy alone), on stream 0 of the
    seed.

    Each round draws one Bernoulli(bite) per m-subset.  One greedy scan
    adds every candidate whose r-subsets are all still uncovered: each
    round's sampled m-subsets in colex order, then all m-subsets in
    seeded-shuffle order, so the result is maximal.
    The seeds are drawn in chunks of about _CHUNK_DRAWS outputs: each
    chunk draws one block of bites per round and one of swap targets,
    bit for bit the draws of each seed's own stream.  A greedy chunk of
    at least _LOCKSTEP_SEEDS seeds is shuffled and scanned in lockstep,
    and only its winner is scanned again, alone, for its blocks; any
    other chunk is scanned seed by seed.
    """
    _check_table("packing table", n, m, comb(m, r))
    subs = subsets_colex(n, m)
    table = induced_rank_table(n, m, r)
    # row i: global colex ranks of the r-subsets of the i-th m-subset, as
    # lists for the scan; built per call, as they grow with C(n,m) C(m,r)
    rows = table.tolist()
    size, ncov = len(subs), comb(n, r)
    # Only a round compares draws with the threshold.
    threshold = np.uint64(bernoulli_threshold(bite)) if rounds else None
    # A seed draws (rounds + 1) * size - 1 outputs; a lockstep chunk holds
    # seeds x size candidates and seeds x C(n,r) covered flags.
    chunk = max(1, _CHUNK_DRAWS // max((rounds + 1) * size, ncov))
    for lo in range(seeds.start, seeds.stop, chunk):
        keys = seed_keys(lo, min(chunk, seeds.stop - lo))
        bites = [raw_u64_rows(keys, 1 + t * size, size) < threshold
                 for t in range(rounds)]
        targets, _ = shuffle_targets(keys, rounds * size, size)
        if rounds or len(keys) < _LOCKSTEP_SEEDS:
            sizes, best = [], None
            for i in range(len(keys)):
                order = list(range(size))
                _swap(order, targets[i])
                blocks = _scan(rows, subs, ncov, chain(
                    *(np.flatnonzero(b[i]).tolist() for b in bites), order))
                sizes.append(len(blocks))
                if best is None or len(blocks) > len(best):
                    best = blocks
        else:
            sizes, order = _lockstep(table, ncov, targets)
            i = sizes.index(max(sizes))
            best = _scan(rows, subs, ncov, order[:, i].tolist())
            if len(best) != sizes[i]:
                raise ConstructionError(
                    f"seed {lo + i}: lockstep scan found d={sizes[i]}, "
                    f"its own scan d={len(best)}")
        yield sizes, tuple(sorted(best))


@dataclass(frozen=True)
class SearchResult:
    seed: int  # the first seed reaching the largest d
    system: SteinerSystem
    sizes: tuple  # d of each seed tried, in seed order


def search_system(r: int, m: int, n: int, seed: int, restarts: int,
                  algo: str = "greedy", bite=DEFAULT_BITE,
                  rounds: int = DEFAULT_ROUNDS) -> SearchResult:
    """Pack seeds seed..seed+restarts-1 with the random-order greedy scan
    (algo "greedy") or `rounds` random bites then greedy completion
    (algo "nibble"), and keep the first seed with the most blocks; only
    that one is verified.  Every packing is maximal.  At most
    MAX_RESTARTS seeds are tried, as sizes keeps one d per seed.

    The seeds are drawn a chunk at a time, _CHUNK_DRAWS (2^18) random
    outputs per chunk, and each seed's packing equals the one drawn on
    its own stream alone, bit for bit; with rounds=0 the nibble is the
    greedy packing.  A greedy chunk of _LOCKSTEP_SEEDS or more seeds runs
    in lockstep, one numpy step per swap and scan position; the nibble,
    and a chunk of fewer seeds, such as a single packing, run seed by
    seed."""
    _check_params(r, m, n)
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ParameterError(
            f"restarts must lie in 1..{MAX_RESTARTS}, got {restarts}")
    if algo == "nibble":
        bite = Fraction(bite)
        if not 0 < bite < 1:
            raise ParameterError(f"bite must lie in (0, 1), got {bite}")
        if rounds < 0:
            raise ParameterError("rounds must be >= 0")
    elif algo == "greedy":
        bite, rounds = DEFAULT_BITE, 0
    else:
        raise ParameterError(f"algo must be greedy or nibble, got {algo!r}")
    best_seed, best, sizes = seed, None, []
    for chunk, blocks in _packings(r, m, n, range(seed, seed + restarts),
                                   bite=bite, rounds=rounds):
        if best is None or len(blocks) > len(best):
            best_seed = seed + len(sizes) + chunk.index(len(blocks))
            best = blocks
        sizes += chunk
    return SearchResult(best_seed, SteinerSystem(r=r, m=m, n=n, blocks=best),
                        tuple(sizes))


def greedy_system(r: int, m: int, n: int, seed: int) -> SteinerSystem:
    """Random-order greedy packing of one seed; maximal."""
    return search_system(r, m, n, seed, 1).system


@dataclass(frozen=True)
class MaximalityReport:
    maximal: bool
    checked: int
    addable: tuple | None


def maximality_report(sys: SteinerSystem) -> MaximalityReport:
    """Search every m-subset, in colex order, for an addable block: one
    whose r-subsets are all uncovered.  The rank table is the packing's,
    C(n,m) x C(m,r) entries, and is refused above the same limit."""
    _check_table("packing table", sys.n, sys.m, comb(sys.m, sys.r))
    covered = sys.covered_table()
    free = ~covered[induced_rank_table(sys.n, sys.m, sys.r)].any(axis=1)
    if free.any():
        ci = int(free.argmax())
        return MaximalityReport(False, ci + 1, unrank_subset(ci, sys.m))
    return MaximalityReport(True, len(free), None)


def system_to_json_obj(sys: SteinerSystem) -> dict:
    return {"r": sys.r, "m": sys.m, "n": sys.n,
            "blocks": [list(b) for b in sys.blocks]}


def _system_fields(obj) -> tuple:
    """(r, m, n, blocks) of a system object, blocks in file order, unverified."""
    try:
        return (_json_int(obj["r"]), _json_int(obj["m"]), _json_int(obj["n"]),
                tuple(tuple(map(_json_int, b)) for b in obj["blocks"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad system object: {exc}", 0) from None


def system_from_json_obj(obj) -> SteinerSystem:
    r, m, n, blocks = _system_fields(obj)
    return SteinerSystem(r=r, m=m, n=n, blocks=tuple(sorted(blocks)))


def load_system_fields(path: str) -> tuple:
    """(r, m, n, blocks) of a system file, for verify_system on raw input;
    only (r, m, n) are checked."""
    fields = _system_fields(load_json(path))
    _check_params(*fields[:3])
    return fields


def save_system(sys: SteinerSystem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(system_to_json_obj(sys)) + "\n")

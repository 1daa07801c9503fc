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
_CHUNK_DRAWS = 1 << 16


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


def _packings(r: int, m: int, n: int, seeds: range, bite: Fraction,
              rounds: int):
    """Sorted blocks of each seed's packing, unverified, in seed order:
    `rounds` random bites, then greedy completion (with rounds=0, greedy
    alone), on stream 0 of the seed.

    Each round draws one Bernoulli(bite) per m-subset.  One greedy scan
    adds every candidate whose r-subsets are all still uncovered: each
    round's sampled m-subsets in colex order, then all m-subsets in
    seeded-shuffle order, so the result is maximal.
    The seeds are drawn in chunks of about _CHUNK_DRAWS outputs: each
    chunk draws one block of bites per round and one of swap targets,
    bit for bit the draws of each seed's own stream.
    """
    _check_table("packing table", n, m, comb(m, r))
    subs = subsets_colex(n, m)
    # row i: global colex ranks of the r-subsets of the i-th m-subset, as
    # lists for the scan; built per call, as they grow with C(n,m) C(m,r)
    rows = induced_rank_table(n, m, r).tolist()
    size = len(subs)
    # Only a round compares draws with the threshold.
    threshold = np.uint64(bernoulli_threshold(bite)) if rounds else None
    chunk = max(1, _CHUNK_DRAWS // max(1, (rounds + 1) * size - 1))
    for lo in range(seeds.start, seeds.stop, chunk):
        keys = seed_keys(lo, min(chunk, seeds.stop - lo))
        bites = [raw_u64_rows(keys, 1 + t * size, size) < threshold
                 for t in range(rounds)]
        targets, _ = shuffle_targets(keys, rounds * size, size)
        for i in range(len(keys)):
            covered = bytearray(comb(n, r))
            blocks: list = []
            order = list(range(size))
            _swap(order, targets[i])
            for ci in chain(*(np.flatnonzero(b[i]).tolist() for b in bites),
                            order):
                row = rows[ci]
                for k in row:
                    if covered[k]:
                        break
                else:
                    for k in row:
                        covered[k] = 1
                    blocks.append(subs[ci])
            yield tuple(sorted(blocks))


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
    that one is verified.  Every packing is maximal.

    The seeds are drawn a chunk at a time, _CHUNK_DRAWS (2^16) random
    outputs per chunk, and each seed's packing equals the one drawn on
    its own stream alone, bit for bit; with rounds=0 the nibble is the
    greedy packing."""
    _check_params(r, m, n)
    if restarts < 1:
        raise ParameterError(f"restarts must be >= 1, got {restarts}")
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
    for s, blocks in enumerate(_packings(r, m, n, range(seed, seed + restarts),
                                         bite=bite, rounds=rounds), seed):
        sizes.append(len(blocks))
        if best is None or len(blocks) > len(best):
            best_seed, best = s, blocks
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

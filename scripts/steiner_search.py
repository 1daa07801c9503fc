"""Seed sweep for large partial Steiner packings at fixed (r, m, n).

Reports the block-count distribution over the sweep, the trivial upper
bound C(n,r)/C(m,r), and the best system found; optionally saves it.
The sweep is `hlab steiner --restarts`, so both pick the same seed.

Example:
    python3 scripts/steiner_search.py --r 2 --m 3 --n 7 --seeds 10000
"""

import argparse
import sys
import time
from collections import Counter
from fractions import Fraction
from math import comb

from hlab.steiner import maximality_report, save_system, search_system


def parse_args(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r", type=int, required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--seeds", type=int, default=1000)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--algo", choices=("greedy", "nibble"), default="greedy")
    ap.add_argument("--bite", type=Fraction, default=Fraction(1, 10))
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", default=None, help="save the best system here")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    a = parse_args(argv)
    bound = comb(a.n, a.r) // comb(a.m, a.r)
    started = time.perf_counter()
    found = search_system(a.r, a.m, a.n, a.first_seed, a.seeds, algo=a.algo,
                          bite=a.bite, rounds=a.rounds)
    elapsed = time.perf_counter() - started
    system = found.system
    sizes = Counter(found.sizes)
    print(f"({a.r},{a.m},{a.n}) {a.algo}, {a.seeds} seeds, "
          f"{elapsed:.1f}s; upper bound d <= {bound}")
    for d in sorted(sizes):
        share = sizes[d] / a.seeds
        print(f"  d = {d:>4}: {sizes[d]:>6} runs ({share:.1%})")
    rep = maximality_report(system)
    print(f"best: d = {system.d} at seed {found.seed}, uncovered fraction "
          f"{system.uncovered_fraction}, maximal = {rep.maximal}")
    if a.out:
        save_system(system, a.out)
        print(f"saved to {a.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

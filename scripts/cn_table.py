"""Print the entropy sequence c_n for a forbidden family over an n range.

Example:
    python3 scripts/cn_table.py --family fixtures/famK3.g6 --p 1/2 --n 2 8
"""

import argparse
import sys
from fractions import Fraction
from math import comb

from hlab.family import normalize_family
from hlab.codec import load_graph_list
from hlab.measure import cn_sequence, fraction_str


def parse_args(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", required=True,
                    help="family file (graph6 lines or JSON array)")
    ap.add_argument("--p", type=Fraction, default=Fraction(1, 2))
    ap.add_argument("--n", nargs=2, type=int, metavar=("LO", "HI"),
                    default=(2, 7))
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--cap", type=int, default=None)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    a = parse_args(argv)
    fam = normalize_family(load_graph_list(a.family))
    points = cn_sequence(fam, a.p, range(a.n[0], a.n[1] + 1),
                         cap_bits=a.cap, workers=a.workers)
    print(f"family: {len(fam.members)} member(s), r={fam.r}, t={fam.t}, "
          f"p={fraction_str(a.p)}")
    print(f"{'n':>3} {'C(n,r)':>7} {'mu_n':>24} {'c_n':>20} {'delta':>12}")
    prev = None
    for pt in points:
        delta = "" if prev is None else f"{float(pt.c_n - prev):+.6f}"
        print(f"{pt.n:>3} {comb(pt.n, fam.r):>7} "
              f"{fraction_str(pt.mu):>24} {float(pt.c_n):>20.12f} "
              f"{delta:>12}")
        prev = pt.c_n
    return 0


if __name__ == "__main__":
    sys.exit(main())

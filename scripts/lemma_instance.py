"""Run the full partition-lemma pipeline on one desk-scale instance.

Builds (or loads) an instance, then walks the proof chain: per-block
theta measures, the containment-pattern partition with its exact
identity, the projection and tail bounds, and the whole-space X scan
with its counting floor.

Example:
    python3 scripts/lemma_instance.py --n 6 --system-seed 0 --min-edges 8
"""

import argparse
import sys
from fractions import Fraction

from hlab.family import normalize_family
from hlab.hypergraph import complete_graph
from hlab.measure import EdgePredicate, fraction_str
from hlab.steiner import greedy_system
from hlab.supersat import (Instance, LemmaParameters, counting_floor,
                           lemma_report, load_instance, partition_table,
                           projection_bound_check, save_instance, tail_mass,
                           x_set)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instance", default=None,
                    help="load an instance file instead of building one")
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--system-seed", type=int, default=0)
    ap.add_argument("--min-edges", type=int, default=8,
                    help="A = graphs with at least this many edges")
    ap.add_argument("--nu", type=Fraction, default=Fraction(1, 4))
    ap.add_argument("--gamma", type=Fraction, default=None,
                    help="defaults to nu/4")
    ap.add_argument("--p", type=Fraction, default=Fraction(1, 2))
    ap.add_argument("--save", default=None, help="write the instance here")
    ap.add_argument("--workers", type=int, default=1)
    return ap.parse_args(argv)


def build_instance(a) -> Instance:
    fam = normalize_family([complete_graph(3, 2)])
    system = greedy_system(2, a.m, a.n, seed=a.system_seed)
    params = LemmaParameters(nu=a.nu, gamma=a.gamma, m=a.m)
    return Instance(n=a.n, r=2, p=a.p,
                    predicate=EdgePredicate.min_edges(a.min_edges),
                    family=fam, system=system, params=params)


def main(argv=None) -> int:
    a = parse_args(argv)
    inst = load_instance(a.instance) if a.instance else build_instance(a)
    if a.save:
        save_instance(inst, a.save)
    system, params = inst.require("system"), inst.require("params")
    print(f"instance: n={inst.n}, r={inst.r}, p={fraction_str(inst.p)}, "
          f"d={system.d} blocks of order {system.m}, "
          f"gamma={fraction_str(params.gamma)}, nu={fraction_str(params.nu)}")

    rep = lemma_report(inst, workers=a.workers)
    print(f"mu(A) = {fraction_str(rep.mu_A)}")
    for i, th in enumerate(rep.theta):
        mark = "*" if i in rep.index_set else " "
        print(f"  theta_{i + 1} = {fraction_str(th)} {mark}")
    print(f"I = {list(rep.index_set)}, eta = {fraction_str(rep.eta)}")

    table = partition_table(inst, workers=a.workers)
    print(f"partition: {len(table.cells)} nonempty cells, identity "
          f"sum|S|mu(A_S) = sum theta_i = {fraction_str(table.theta_sum)}")

    proj = projection_bound_check(table, rep.mu_mB)
    worst = min(proj.cells, key=lambda c: c.slack, default=None)
    print(f"projection bound: ok={proj.ok}"
          + (f", tightest slack {fraction_str(worst.slack)} at |S|={worst.size}"
             if worst else ""))

    tail = tail_mass(params.nu, table.d, rep.mu_mB, table=table)
    print(f"tail bound = {fraction_str(tail)}, tail_small={rep.tail_small}, "
          f"chain_ok={rep.chain_ok}")

    xrep = x_set(inst, system.m, params.gamma, workers=a.workers)
    print(f"X over all m-subsets: |X| = {xrep.x_size}, eta_eff = "
          f"{fraction_str(xrep.eta_eff)}, averaging_ok={xrep.averaging_ok}")
    if xrep.best_graph is not None:
        print(f"best graph: mask {xrep.best_graph.edge_mask}, "
              f"{xrep.best_mset_count} containment m-subsets, "
              f"{xrep.distinct_copies} distinct induced members")
    if xrep.x_size and xrep.eta_eff > 0:
        fl = counting_floor(inst.n, system.m, inst.family.t, params.gamma,
                            xrep.eta_eff)
        print(f"counting floor: ratio {fraction_str(fl.ratio)} >= "
              f"{fraction_str(fl.floor)} is {fl.ok} "
              f"(proviso n>=2t: {fl.proviso_met})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

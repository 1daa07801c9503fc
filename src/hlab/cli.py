"""Command-line harness: one subcommand per library operation.

Output contract: results go to stdout only after the computation
finishes (no partial output on error), rationals render as "num/den",
floats with 15 significant digits, and the same arguments produce
byte-identical output at any --workers count.  Exit codes: 0
success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields, is_dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache

from .codec import (encode_graph6, graph_to_json_obj, load_graph,
                    load_graph_list, load_json, save_graph)
from .errors import HlabError, InputError
from .extremal import exstar, exstar_to_json_obj, tau, witness_check
from .family import count_induced, normalize_family
from .hypergraph import RUniformGraph
from .measure import (EdgePredicate, cn_sequence, exact_measure, fraction_str,
                      mc_measure, predicate_from_json_obj)
from .steiner import (load_system_fields, save_system, search_system,
                      verify_system)
from .supersat import (counting_floor, lemma_report, load_instance,
                       partition_table, tail_mass, x_set)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with its errors reported as one `usage error:` line."""

    def error(self, message):
        self.exit(2, f"usage error: {self.prog}: {message}\n")


def _fraction(text: str) -> Fraction:
    """argparse type for rational flags such as 1/3 or 0.25."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational number") from None


def _fmt_float(x) -> str:
    """x to 15 significant digits through float; a nonzero Decimal that
    float rounds to 0 (log2 of a measure within 10^-308 of 1) through
    its own digits."""
    f = float(x)
    return f"{x if x and not f else f:.15g}"


def _render(x):
    """Convert a result value into its canonical printed form; a report
    dataclass becomes a row of its fields in declaration order."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, RUniformGraph):
        return graph_to_json_obj(x)
    if is_dataclass(x):
        return {f.name: _render(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, Fraction):
        return fraction_str(x)
    if isinstance(x, (float, Decimal)):
        return _fmt_float(x)
    if isinstance(x, dict):
        return {k: _render(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_render(v) for v in x]
    raise TypeError(f"unrenderable value {x!r}")


def _emit(rows: list, fmt: str) -> None:
    rows = [_render(r) for r in rows]
    if fmt == "json":
        out = rows[0] if len(rows) == 1 else rows
        sys.stdout.write(json.dumps(out, indent=2) + "\n")
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        # bools/None/nested values go through JSON so both formats agree
        writer.writerow(
            v if isinstance(v, str) or (isinstance(v, int)
                                        and not isinstance(v, bool))
            else json.dumps(v, separators=(",", ":"))
            for v in row.values())
    sys.stdout.write(buf.getvalue())


def _int_list(text: str) -> list:
    """argparse type for comma lists of integers such as 2,3,4."""
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma list of integers") from None


def _edge_list(text: str) -> list:
    """argparse type for comma lists of edges such as 0-1,1-2."""
    ends = [item.split("-") for item in text.split(",")] if text else []
    try:
        if all(len(e) == 2 for e in ends):
            return [(int(a), int(b)) for a, b in ends]
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"{text!r} is not a comma list of a-b edges")


def _add_predicate_flags(sp) -> None:
    sp.add_argument("--forb", metavar="FILE",
                    help="family file; predicate = no induced member")
    sp.add_argument("--contains", metavar="FILE",
                    help="family file; predicate = some induced member")
    sp.add_argument("--within", type=_int_list, default=None,
                    help="comma list of vertices restricting --contains")
    sp.add_argument("--min-edges", dest="min_edges", type=int, default=None)
    sp.add_argument("--max-edges", dest="max_edges", type=int, default=None)
    sp.add_argument("--predicate", metavar="FILE",
                    help="JSON predicate descriptor file")


def _load_family(path: str):
    return normalize_family(load_graph_list(path))


# Predicate flag -> the predicate it selects, built from the parsed arguments.
_PREDICATE_FLAGS = {
    "forb": lambda a: EdgePredicate.forb(_load_family(a.forb)),
    "contains": lambda a: EdgePredicate.contains(_load_family(a.contains),
                                                 within=a.within),
    "min_edges": lambda a: EdgePredicate.min_edges(a.min_edges),
    "max_edges": lambda a: EdgePredicate.max_edges(a.max_edges),
    "predicate": lambda a: predicate_from_json_obj(load_json(a.predicate)),
}


def _predicate_from_args(args) -> EdgePredicate:
    chosen = [f for f in _PREDICATE_FLAGS if getattr(args, f) is not None]
    if len(chosen) != 1:
        raise _UsageError(
            "exactly one of --forb/--contains/--min-edges/--max-edges/"
            "--predicate is required")
    if args.within is not None and chosen != ["contains"]:
        raise _UsageError("--within applies only to --contains")
    return _PREDICATE_FLAGS[chosen[0]](args)


def _cmd_measure(a: argparse.Namespace) -> list:
    pred = _predicate_from_args(a)
    res = exact_measure(a.n, a.r, a.p, pred, cap_bits=a.cap, workers=a.workers)
    return [{"n": a.n, "r": a.r, "p": a.p, "value": res.value,
             "log2_value": res.log2_value, "method": res.method}]


def _cmd_cn(a: argparse.Namespace) -> list:
    if not a.n_list:
        raise _UsageError("--n-list names no n")
    fam = _load_family(a.family)
    return cn_sequence(fam, a.p, a.n_list, cap_bits=a.cap, workers=a.workers)


def _cmd_mc(a: argparse.Namespace) -> list:
    pred = _predicate_from_args(a)
    res = mc_measure(a.n, a.r, a.p, pred, samples=a.samples, seed=a.seed,
                     ci_level=a.ci_level, workers=a.workers)
    return [{"n": a.n, "r": a.r, "p": a.p, "estimate": res.value,
             "hits": res.hits, "samples": res.samples, "seed": res.seed,
             "ci_level": res.ci_level, "ci_low": res.ci_low,
             "ci_high": res.ci_high, "method": res.method}]


def _cmd_steiner(a: argparse.Namespace) -> list:
    found = search_system(a.r, a.m, a.n, a.seed, a.restarts, algo=a.algo,
                          bite=a.bite, rounds=a.rounds)
    system = found.system  # SteinerSystem validated it on construction
    if a.out:
        save_system(system, a.out)
    return [{"r": a.r, "m": a.m, "n": a.n, "algo": a.algo, "seed": found.seed,
             "restarts": a.restarts, "valid": True, "d": system.d,
             "covered": system.covered,
             "uncovered_fraction": system.uncovered_fraction,
             "violations": []}]


def _cmd_verify_steiner(a: argparse.Namespace) -> list:
    return [verify_system(*load_system_fields(a.system))]


def _cmd_lemma(a: argparse.Namespace) -> list:
    return [lemma_report(load_instance(a.instance), cap_bits=a.cap,
                         workers=a.workers)]


def _instance_table(a: argparse.Namespace, d: int | None = None):
    """The partition table of the --instance file; a given d must be the
    system's, and is checked before the scan."""
    inst = load_instance(a.instance)
    system = inst.require("system")
    if d is not None and d != system.d:
        raise InputError(f"--d {d} disagrees with instance d={system.d}")
    return partition_table(inst, cap_bits=a.cap, workers=a.workers)


def _cmd_partition(a: argparse.Namespace) -> list:
    table = _instance_table(a)
    cells = [{"pattern": s, "size": s.bit_count(), "mu": table.cells[s]}
             for s in sorted(table.cells)]
    return [{"d": table.d, "cells": cells, "total": table.total,
             "weighted_sum": table.weighted_sum,
             "theta_sum": table.theta_sum, "theta": list(table.theta),
             "identity_ok": table.weighted_sum == table.theta_sum}]


def _cmd_tailmass(a: argparse.Namespace) -> list:
    # the closed form first: its checks refuse bad input before any scan
    row = {"nu": a.nu, "d": a.d, "mu_mB": a.mu,
           "value": tail_mass(a.nu, a.d, a.mu)}
    if a.instance:
        table = _instance_table(a, a.d)
        tail_mass(a.nu, a.d, a.mu, table=table)  # raises unless it dominates
        row.update(small_mass=table.small_mass((a.nu * a.d).__floor__()),
                   dominates=True)
    return [row]


def _cmd_xset(a: argparse.Namespace) -> list:
    inst = load_instance(a.instance)
    gamma = a.gamma if a.gamma is not None else inst.require("params").gamma
    m = a.m if a.m is not None else inst.require("params").m
    if m is None:
        raise InputError("block order m missing from flags and instance")
    return [x_set(inst, m, gamma, cap_bits=a.cap, workers=a.workers)]


def _cmd_floor(a: argparse.Namespace) -> list:
    return [counting_floor(a.n, a.m, a.t, a.gamma, a.eta)]


def _cmd_tau(a: argparse.Namespace) -> list:
    return [tau(load_graph(a.graph))]


def _cmd_exstar(a: argparse.Namespace) -> list:
    return [exstar_to_json_obj(exstar(a.n, load_graph(a.graph)))]


def _cmd_witness(a: argparse.Namespace) -> list:
    return [witness_check(a.n, load_graph(a.graph), a.e, a.e0)]


def _cmd_count_induced(a: argparse.Namespace) -> list:
    G = load_graph(a.graph)
    fam = _load_family(a.family)
    count = count_induced(G, fam)
    return [{"count": count, "contains": count > 0}]


def _cmd_codec(a: argparse.Namespace) -> list:
    G = load_graph(a.input)
    if a.out:
        save_graph(G, a.out)
        return [{"n": G.n, "r": G.r, "edges": G.num_edges, "out": a.out}]
    if a.to == "g6":
        return [{"g6": encode_graph6(G)}]
    return [G]


_HANDLERS = {
    "measure": _cmd_measure, "cn": _cmd_cn, "mc": _cmd_mc,
    "steiner": _cmd_steiner, "verify-steiner": _cmd_verify_steiner,
    "lemma": _cmd_lemma, "partition": _cmd_partition,
    "tailmass": _cmd_tailmass, "xset": _cmd_xset, "floor": _cmd_floor,
    "tau": _cmd_tau, "exstar": _cmd_exstar, "witness": _cmd_witness,
    "count-induced": _cmd_count_induced, "codec": _cmd_codec,
}


# The subcommands that take --workers: the seven that schedule blocks on
# threads, and steiner and exstar, which schedule nothing but keep the flag
# because perfbench/run.py passes it to every command.  Those of the seven
# that enumerate a mask space also take its --cap.
_WORKERS_FLAG = {"measure", "cn", "mc", "lemma", "partition", "tailmass",
                 "xset", "steiner", "exstar"}
_CAP_FLAG = {"measure", "cn", "lemma", "partition", "tailmass", "xset"}


@cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parse_args keeps no state
    between calls."""
    top = _Parser(
        prog="hlab",
        description="exact verification lab for measures, designs, and "
                    "supersaturation counting in random r-graphs")
    subs = top.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("measure", help="exact class measure mu_n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--p", type=_fraction, required=True)
    _add_predicate_flags(sp)

    sp = subs.add_parser("cn", help="entropy constants over an n range")
    sp.add_argument("--family", required=True)
    sp.add_argument("--p", type=_fraction, required=True)
    sp.add_argument("--n-list", dest="n_list", type=_int_list, required=True)

    sp = subs.add_parser("mc", help="Monte-Carlo measure with exact CI")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--p", type=_fraction, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--ci-level", dest="ci_level", type=float, default=0.95)
    _add_predicate_flags(sp)

    sp = subs.add_parser("steiner", help="construct a partial Steiner system")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--algo", choices=("greedy", "nibble"), default="greedy")
    sp.add_argument("--bite", type=_fraction, default=Fraction(1, 10))
    sp.add_argument("--rounds", type=int, default=10)
    sp.add_argument("--restarts", type=int, default=1,
                    help="try seeds seed..seed+restarts-1, keep largest d")
    sp.add_argument("--out", default=None, help="write the system JSON here")

    sp = subs.add_parser("verify-steiner", help="verify a system file")
    sp.add_argument("--system", required=True)

    for name in ("lemma", "partition"):
        sp = subs.add_parser(name, help=f"{name} report for an instance file")
        sp.add_argument("--instance", required=True)

    sp = subs.add_parser("tailmass", help="closed-form small-cell bound")
    sp.add_argument("--nu", type=_fraction, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--mu", type=_fraction, required=True)
    sp.add_argument("--instance", default=None,
                    help="also check domination of the true small-cell mass")

    sp = subs.add_parser("xset", help="dense m-subset scan and count floor")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--gamma", type=_fraction, default=None)

    sp = subs.add_parser("floor", help="ratio versus (2m)^-t n^t floor")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--gamma", type=_fraction, default=Fraction(1))
    sp.add_argument("--eta", type=_fraction, default=Fraction(1))

    sp = subs.add_parser("tau", help="partition parameter of a graph")
    sp.add_argument("--graph", required=True)

    sp = subs.add_parser("exstar", help="exact ex*(n, F) with witnesses")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--graph", required=True)

    sp = subs.add_parser("witness", help="check an (E, E0) witness pair")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--e", type=_edge_list, default="", help='edges "a-b,c-d"')
    sp.add_argument("--e0", type=_edge_list, default="",
                    help='base edges "a-b,c-d"')

    sp = subs.add_parser("count-induced", help="induced member subsets")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--family", required=True)

    sp = subs.add_parser("codec", help="convert graph file formats")
    sp.add_argument("--input", required=True)
    sp.add_argument("--to", choices=("g6", "json"), default="json")
    sp.add_argument("--out", default=None)

    for name, sp in subs.choices.items():
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if name in _WORKERS_FLAG:
            sp.add_argument("--workers", type=int, default=1)
        if name in _CAP_FLAG:
            sp.add_argument("--cap", type=int, default=None,
                            help="exact mask-space cap in bits")
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rows = _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (HlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(rows, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())

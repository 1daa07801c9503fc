"""The benchmark's workloads: seeded inputs, CLI command lists, output checks.

Each workload writes its input files from the workload seed and returns
the `hlab` argv lists it runs.  The program only ever sees those files
and flags.  Outputs are checked three ways: against the stdout recorded
for the default seed (perfbench/reference/), against the seed-invariant
part of that recording for any other seed, and against anchors that do
not depend on any recording.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

from hlab.codec import load_graph, load_graph_list, save_graph_list
from hlab.family import normalize_family
from hlab.hypergraph import complete_graph, graph_from_edges, permute_graph
from hlab.measure import EdgePredicate
from hlab.steiner import greedy_system
from hlab.supersat import (Instance, LemmaParameters, load_instance,
                           save_instance)

NAMES = ("exact", "sampled")
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Labelled triangle-free graphs on n = 2..7 vertices (OEIS A006785).
TRIANGLE_FREE_COUNTS = (2, 7, 41, 388, 5789, 133501)
LEMMA_N = 7
MC_SAMPLES = 1_000_000
STEINER_RUNS = ((15, 300), (7, 3000))  # (n, restarts) of the (2,3,n) searches


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _relabelled(G, rng: random.Random):
    sigma = list(range(G.n))
    rng.shuffle(sigma)
    return permute_graph(G, sigma)


def _path(n: int):
    return graph_from_edges(n, 2, [(i, i + 1) for i in range(n - 1)])


def _exact_scan(rng, d: Path) -> list:
    """Members are written in a seeded labelling; every result is
    invariant under relabelling, so the outputs do not depend on the seed."""
    members = {"K3.g6": complete_graph(3, 2),
               "C4.g6": graph_from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)]),
               "P5.g6": _path(5),
               "K4_3.json": complete_graph(4, 3)}
    for fname, G in members.items():
        save_graph_list([_relabelled(G, rng)], str(d / fname))
    return [
        ["cn", "--family", str(d / "K3.g6"), "--p", "1/2",
         "--n-list", "2,3,4,5,6,7"],
        ["measure", "--n", "7", "--r", "2", "--p", "1/2",
         "--forb", str(d / "C4.g6")],
        ["measure", "--n", "7", "--r", "2", "--p", "1/3",
         "--forb", str(d / "P5.g6")],
        ["measure", "--n", "6", "--r", "3", "--p", "1/2",
         "--forb", str(d / "K4_3.json")],
    ]


def fano_seed(rng: random.Random) -> int:
    """First seed from a seeded start whose greedy (2,3,7) system has d = 7."""
    seed = rng.randrange(1 << 30)
    while greedy_system(2, 3, 7, seed=seed).d != 7:
        seed += 1
    return seed


def _lemma_pipeline(rng, d: Path) -> list:
    system = greedy_system(2, 3, 7, seed=fano_seed(rng))
    inst = Instance(n=LEMMA_N, r=2, p=Fraction(1, 2),
                    predicate=EdgePredicate.min_edges(12),
                    family=normalize_family([complete_graph(3, 2)]),
                    system=system,
                    params=LemmaParameters(nu=Fraction(1, 2), m=3))
    path = str(d / "instance.json")
    save_instance(inst, path)
    return [
        ["lemma", "--instance", path],
        ["partition", "--instance", path],
        ["tailmass", "--nu", "1/2", "--d", "7", "--mu", "7/8",
         "--instance", path],
        ["xset", "--instance", path, "--m", "4", "--gamma", "1/8"],
    ]


def _sampled(rng, d: Path) -> list:
    save_graph_list([complete_graph(3, 2)], str(d / "K3.g6"))
    cmds = [["mc", "--n", "11", "--r", "2", "--p", "1/2",
             "--forb", str(d / "K3.g6"), "--samples", str(MC_SAMPLES),
             "--seed", str(rng.randrange(1 << 30))]]
    for n, restarts in STEINER_RUNS:
        cmds.append(["steiner", "--r", "2", "--m", "3", "--n", str(n),
                     "--seed", str(rng.randrange(1 << 30)),
                     "--restarts", str(restarts)])
    cmds.append(["exstar", "--n", "6", "--graph", str(d / "K3.g6")])
    return cmds


# The parts of each workload, in run order.  Each part draws its inputs
# from its own seeded stream, named after the part.
_PARTS = {"exact": (("exact-scan", _exact_scan),
                    ("lemma-pipeline", _lemma_pipeline)),
          "sampled": (("sampled", _sampled),)}


def make_inputs(name: str, seed: int, d: Path) -> list:
    """Write the workload's input files into d; return its argv lists."""
    d.mkdir(parents=True, exist_ok=True)
    return [argv for part, build in _PARTS[name]
            for argv in build(_rng(part, seed), d)]


def load_inputs(cmds: list) -> None:
    """Load every input file the way the CLI does."""
    for argv in cmds:
        for flag, value in zip(argv, argv[1:]):
            if flag in ("--family", "--forb"):
                normalize_family(load_graph_list(value))
            elif flag == "--graph":
                load_graph(value)
            elif flag == "--instance":
                load_instance(value)


def problem_size(cmds: list) -> int:
    """Masks the results are defined over: 2^C(n,r) per exact result (cn
    once per n), the sample count for mc, 2^C(n,2) for exstar."""
    total = 0
    for argv in cmds:
        a = dict(zip(argv[1::2], argv[2::2]))
        if argv[0] == "cn":
            total += sum(1 << comb(int(n), 2) for n in a["--n-list"].split(","))
        elif argv[0] in ("measure", "exstar"):
            total += 1 << comb(int(a["--n"]), int(a.get("--r", 2)))
        elif argv[0] in ("lemma", "partition", "tailmass", "xset"):
            total += 1 << comb(LEMMA_N, 2)
        elif argv[0] == "mc":
            total += int(a["--samples"])
    return total


# ---- output checks -------------------------------------------------------

def _canonical(argv: list, obj):
    """The part of a command's output that no seed can change."""
    cmd = argv[0]
    if cmd == "partition":
        obj = dict(obj, cells=sorted((c["size"], c["mu"]) for c in obj["cells"]))
    elif cmd == "mc":
        obj = {k: obj[k] for k in ("n", "r", "p", "samples", "ci_level",
                                   "method")}
    elif cmd == "steiner":
        drop = ("seed", "d", "covered", "uncovered_fraction")
        if obj["n"] == 7:
            drop = ("seed",)
        obj = {k: v for k, v in obj.items() if k not in drop}
    return obj


def _clopper_pearson(hits: int, samples: int, level: float) -> list:
    """The exact binomial interval, rendered as the CLI renders floats.
    scipy is imported here, not at module load, so that the set-up probe
    (which imports this module) charges no scipy import to the benchmark."""
    from scipy.stats import beta

    alpha = 1 - level
    lo = 0.0 if hits == 0 else beta.ppf(alpha / 2, hits, samples - hits + 1)
    hi = 1.0 if hits == samples else beta.ppf(1 - alpha / 2, hits + 1,
                                              samples - hits)
    return [f"{lo:.15g}", f"{hi:.15g}"]


def _anchor_problems(argv: list, obj, ref) -> list:
    """Checks that hold for every seed and need no recording."""
    a = dict(zip(argv[1::2], argv[2::2]))
    cmd = argv[0]
    out = []
    if cmd == "cn":
        counts = [Fraction(row["mu"]) * 2 ** comb(row["n"], 2) for row in obj]
        if counts != list(TRIANGLE_FREE_COUNTS):
            out.append(f"labelled counts {counts}")
    elif cmd == "partition" and obj["identity_ok"] is not True:
        out.append("identity_ok is not true")
    elif cmd == "xset" and obj["averaging_ok"] is not True:
        out.append("averaging_ok is not true")
    elif cmd == "exstar" and obj["value"] != 9:
        out.append(f"value {obj['value']} != 9")
    elif cmd == "steiner":
        n, d = obj["n"], obj["d"]
        lo = int(a["--seed"])
        if not (obj["valid"] and obj["violations"] == []
                and obj["covered"] == 3 * d
                and Fraction(obj["uncovered_fraction"])
                == Fraction(comb(n, 2) - 3 * d, comb(n, 2))
                and lo <= obj["seed"] < lo + int(a["--restarts"])):
            out.append(f"report inconsistent: {obj}")
        if n == 7 and d != 7:
            out.append(f"(2,3,7) best d = {d}, expected 7")
    elif cmd == "mc":
        hits, samples = obj["hits"], obj["samples"]
        ref_hits = ref["hits"]
        if not (obj["seed"] == int(a["--seed"]) and samples == MC_SAMPLES
                and obj["estimate"] == f"{hits / samples:.15g}"
                and [obj["ci_low"], obj["ci_high"]]
                == _clopper_pearson(hits, samples, 0.95)
                and abs(hits - ref_hits) <= 8 * ref_hits ** 0.5 + 8):
            out.append(f"report implausible: {obj}")
    return out


def load_reference(name: str) -> list:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["stdout"]


def check(argv: list, seed: int, stdout: str, ref_stdout: str) -> list:
    """Problems with one command's stdout; empty when it is correct."""
    problems = []
    if seed == DEFAULT_SEED and stdout != ref_stdout:
        problems.append("stdout differs from the recorded reference")
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"{argv[0]}: stdout is not JSON"]
    ref = json.loads(ref_stdout)
    problems += _anchor_problems(argv, obj, ref)
    if _canonical(argv, obj) != _canonical(argv, ref):
        problems.append("seed-invariant output differs from the reference")
    return [f"{argv[0]}: {p}" for p in problems]

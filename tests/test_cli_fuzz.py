"""CLI fuzz tests: malformed input files and argv lists never end in a
traceback.

The file test takes a valid graph, family, predicate, system or instance
file, breaks it (a value swapped for an arbitrary JSON value, a key
dropped, or the text truncated) and runs it through the subcommands
that read it, at n <= 4.  The argv test takes a valid argv list for a
subcommand and drops, repeats or adds flags, or swaps values for
malformed, negative or huge ones.  Every run must exit 0, 1 or 2; a
failing run prints nothing on stdout and exactly one line on stderr.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlab.cli import main
from hlab.codec import graph_to_json_obj
from hlab.family import normalize_family
from hlab.hypergraph import complete_graph, graph_from_edges
from hlab.measure import EdgePredicate, predicate_to_json_obj
from hlab.steiner import SteinerSystem, system_to_json_obj
from hlab.supersat import Instance, LemmaParameters, instance_to_json_obj

K3 = complete_graph(3, 2)
FAM_K3 = normalize_family([K3])
SYS4 = SteinerSystem(r=2, m=3, n=4, blocks=((0, 1, 2),))

TEMPLATES = {
    "graph": graph_to_json_obj(graph_from_edges(4, 2, [(0, 1), (1, 2)])),
    "family": [graph_to_json_obj(K3)],
    "predicate": predicate_to_json_obj(EdgePredicate.intersection([
        EdgePredicate.min_edges(1),
        EdgePredicate.contains(FAM_K3, within=(0, 1, 2)),
        EdgePredicate.complement(EdgePredicate.explicit([3])),
        EdgePredicate.max_edges(5)])),
    "system": system_to_json_obj(SYS4),
    "instance": instance_to_json_obj(Instance(
        n=4, r=2, p=Fraction(1, 2), predicate=EdgePredicate.min_edges(2),
        family=FAM_K3, system=SYS4,
        params=LemmaParameters(nu=Fraction(1, 4), gamma=Fraction(1, 8),
                               m=3))),
}

# Subcommands reading each kind of file; {f} is the file, {k3} a K3 file.
COMMANDS = {
    "graph": [["codec", "--input", "{f}"],
              ["count-induced", "--graph", "{f}", "--family", "{k3}"]],
    "family": [["measure", "--n", "4", "--r", "2", "--p", "1/2",
                "--forb", "{f}"],
               ["cn", "--family", "{f}", "--p", "1/2", "--n-list", "2,4"]],
    "predicate": [["measure", "--n", "4", "--r", "2", "--p", "1/2",
                   "--predicate", "{f}"],
                  ["mc", "--n", "4", "--r", "2", "--p", "1/2",
                   "--samples", "20", "--seed", "0", "--predicate", "{f}"]],
    "system": [["verify-steiner", "--system", "{f}"]],
    "instance": [["lemma", "--instance", "{f}"],
                 ["partition", "--instance", "{f}"],
                 ["xset", "--instance", "{f}"]],
}

# Small integers keep every order that a mutation can reach at n <= 5.
LEAVES = st.one_of(st.integers(-2, 5), st.floats(-3, 6, allow_nan=False),
                   st.sampled_from(["1/2", "forb", "contains", "min_edges"]),
                   st.text(max_size=3), st.booleans(), st.none())
JSON_VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)


@st.composite
def mutated(draw, value):
    """value with one subvalue replaced by an arbitrary JSON value, or one
    dict key or list item dropped."""
    if isinstance(value, (dict, list)) and value:
        action = draw(st.sampled_from(["descend"] * 4 + ["drop", "replace"]))
        if action != "replace":
            key = draw(st.sampled_from(list(value) if isinstance(value, dict)
                                       else range(len(value))))
            out = value.copy()
            if action == "drop":
                del out[key]
            else:
                out[key] = draw(mutated(value[key]))
            return out
    return draw(JSON_VALUES)


@st.composite
def broken_files(draw):
    kind = draw(st.sampled_from(sorted(TEMPLATES)))
    text = json.dumps(draw(mutated(TEMPLATES[kind])))
    if draw(st.integers(0, 3)) == 3:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return kind, text


# Nesting past what the readers recurse through: 900 complements around a
# leaf predicate, and an array nested 100,000 deep.
DEEP_PREDICATE = ('{"kind": "complement", "inner": ' * 900
                  + '{"kind": "min_edges", "k": 1}' + "}" * 900)
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000


def run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150)
@given(broken_files())
@example(("predicate", DEEP_PREDICATE))
@example(("family", DEEP_ARRAY))
@example(("instance", DEEP_ARRAY))
def test_malformed_files_fail_cleanly(case):
    kind, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path, k3 = Path(tmp) / f"{kind}.json", Path(tmp) / "K3.json"
        path.write_text(text)
        k3.write_text(json.dumps(TEMPLATES["family"]))
        for argv in COMMANDS[kind]:
            code, out, err = run_cli([a.format(f=path, k3=k3) for a in argv])
            assert code in (0, 1, 2), (argv, text, err)
            assert "Traceback" not in err
            if code != 0:
                assert out == "", (argv, text)
                assert err.count("\n") == 1 and err.endswith("\n"), (
                    argv, text, err)


# A valid argv per subcommand; {name} is a file of the `argv_files` fixture.
VALID_ARGV = {
    "measure": "--n 4 --r 2 --p 1/2 --forb {k3} --cap 20 --workers 1",
    "cn": "--family {k3} --p 1/2 --n-list 2,4 --cap 20 --workers 1",
    "mc": "--n 4 --r 2 --p 1/2 --samples 20 --seed 0 --min-edges 2 "
          "--workers 1",
    "steiner": "--r 2 --m 3 --n 5 --seed 0 --algo nibble --bite 1/10 "
               "--rounds 2 --restarts 2 --out {out}",
    "verify-steiner": "--system {system}",
    "lemma": "--instance {instance} --cap 20 --workers 1",
    "partition": "--instance {instance} --cap 20 --workers 1",
    "tailmass": "--nu 1/2 --d 1 --mu 1/2 --instance {instance} --cap 20 "
                "--workers 1",
    "xset": "--instance {instance} --m 3 --gamma 1/8 --cap 20 --workers 1",
    "floor": "--n 5 --m 3 --t 2 --gamma 1 --eta 1",
    "tau": "--graph {graph}",
    "exstar": "--n 4 --graph {k3}",
    "witness": "--n 4 --graph {k3} --e 0-1 --e0 2-3",
    "count-induced": "--graph {graph} --family {k3}",
    "codec": "--input {graph} --to g6 --out {out}",
}

MALFORMED = st.sampled_from(["", "x", "-", ",", "1/0", "1.5", "nan", "0-x"])
HUGE = st.sampled_from([2**63, 2**64, 10**30, -(2**64)]).map(str)


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def int_lists(elements):
    return st.lists(elements, max_size=4).map(",".join)


# Values each flag may take.  Counts that set the amount of work stay
# small: --workers 1-2 (threads), --samples <= 10^4, and --n <= 5, so
# an r = 2 mask space (exstar's free table too) has at most 2^10 masks.
FILES = ("k3", "graph", "k4_3", "system", "instance", "predicate",
         "missing", "dir")
VALUES = {
    "--n": ints(-2, 5),
    "--n-list": int_lists(ints(-2, 5)),
    "--workers": st.sampled_from(["1", "2"]),
    "--samples": ints(-2, 10**4),
    "--restarts": ints(-2, 50),
    "--rounds": ints(-2, 50),
    "--d": ints(-2, 50),
    "--within": int_lists(st.one_of(ints(-2, 8), HUGE)),
    "--ci-level": st.sampled_from(["0.95", "0", "1", "-1", "1e400"]),
    "--e": st.sampled_from(["0-1,1-2", "0-1,0-1", "0-0", "0-9", "1-2-3",
                            "0-18446744073709551616"]),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--to": st.sampled_from(["g6", "json", "dot"]),
    "--algo": st.sampled_from(["greedy", "nibble", "best"]),
    "--out": st.sampled_from(["{out}", "{out6}", "{dir}", "{missing}/x"]),
}
VALUES["--e0"] = VALUES["--e"]
for flag in ("--r", "--m", "--t", "--seed", "--min-edges", "--max-edges",
             "--cap"):
    VALUES[flag] = st.one_of(ints(-3, 6), HUGE)
for flag in ("--p", "--nu", "--mu", "--gamma", "--eta", "--bite"):
    VALUES[flag] = st.one_of(
        st.sampled_from(["0", "1", "1/2", "1/3", "-1/2", "3/2", "1e30"]), HUGE)
# Paths stay inside the fixture's directory: no file is read or written
# anywhere else.
PATH_FLAGS = ("--graph", "--family", "--forb", "--contains", "--predicate",
              "--system", "--instance", "--input", "--out")
for flag in PATH_FLAGS[:-1]:
    VALUES[flag] = st.sampled_from([f"{{{name}}}" for name in FILES])
UNKNOWN = sorted(VALUES) + ["--bogus"]


def value_for(flag):
    if flag in PATH_FLAGS:
        return VALUES[flag]
    return st.one_of(*[VALUES.get(flag, MALFORMED)] * 3, MALFORMED)


@st.composite
def fuzzed_argv(draw):
    """A valid argv with one to three flags dropped, repeated, added or
    given a new value, as (flag, value) pairs after the subcommand."""
    command = draw(st.sampled_from(sorted(VALID_ARGV)))
    words = VALID_ARGV[command].split()
    pairs = list(zip(words[::2], words[1::2]))
    pairs += [("--format", "json")]
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["drop", "repeat", "add"]
                                      + ["value"] * 3))
        if action == "add":
            flag = draw(st.sampled_from(UNKNOWN))
            pairs.insert(draw(st.integers(0, len(pairs))),
                         (flag, draw(value_for(flag))))
            continue
        if not pairs:
            continue
        i = draw(st.integers(0, len(pairs) - 1))
        flag = pairs[i][0]
        if action == "drop":
            del pairs[i]
        elif action == "repeat":
            pairs.insert(i + 1, (flag, draw(value_for(flag))))
        else:
            pairs[i] = (flag, draw(value_for(flag)))
    return [command] + [w for pair in pairs for w in pair]


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    contents = {
        "k3": [graph_to_json_obj(K3)],
        "graph": TEMPLATES["graph"],
        "k4_3": [graph_to_json_obj(complete_graph(4, 3))],
        "system": TEMPLATES["system"],
        "instance": TEMPLATES["instance"],
        "predicate": TEMPLATES["predicate"],
    }
    paths = {"dir": str(root), "missing": str(root / "missing"),
             "out": str(root / "out.json"), "out6": str(root / "out.g6")}
    for name, obj in contents.items():
        paths[name] = str(root / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(obj))
    return paths


@settings(max_examples=200)
@given(argv=fuzzed_argv())
def test_malformed_argv_fails_cleanly(argv_files, argv):
    argv = [a.format(**argv_files) for a in argv]
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if code != 0:
        assert out == "", argv
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)

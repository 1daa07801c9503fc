"""CLI fuzz test: malformed input files never end in a traceback.

Each example takes a valid graph, family, predicate, system or instance
file, breaks it (a value swapped for an arbitrary JSON value, a key
dropped, or the text truncated) and runs it through the subcommands
that read it, at n <= 4.  Every run must exit 0, 1 or 2; a failing run
prints nothing on stdout and exactly one line on stderr.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
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

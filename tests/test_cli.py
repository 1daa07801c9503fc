import csv
import io
import json
import os
import sys
from fractions import Fraction

import pytest

from hlab.cli import main
from hlab.codec import save_graph
from hlab.hypergraph import complete_graph, graph_from_edges
from hlab.family import normalize_family
from hlab.measure import EdgePredicate, exact_measure
from hlab.steiner import SteinerSystem, save_system
from hlab.supersat import Instance, LemmaParameters, save_instance

from oracles import log2_oracle

K3 = complete_graph(3, 2)
C4 = graph_from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
P5 = graph_from_edges(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "k3": str(root / "K3.g6"),
        "c4": str(root / "C4.g6"),
        "fam_k3": str(root / "famK3.g6"),
        "p5": str(root / "P5.g6"),
        "system": str(root / "sys6.json"),
        "instance": str(root / "inst6.json"),
        "root": str(root),
    }
    save_graph(K3, paths["k3"])
    save_graph(C4, paths["c4"])
    save_graph(K3, paths["fam_k3"])
    save_graph(P5, paths["p5"])
    sys6 = SteinerSystem(r=2, m=3, n=6,
                         blocks=((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)))
    save_system(sys6, paths["system"])
    from hlab.family import normalize_family
    inst = Instance(n=6, r=2, p=Fraction(1, 2),
                    predicate=EdgePredicate.min_edges(8),
                    family=normalize_family([K3]), system=sys6,
                    params=LemmaParameters(nu=Fraction(1, 4), m=3))
    save_instance(inst, paths["instance"])
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_measure_example(files, capsys):
    obj = run_json(capsys, ["measure", "--n", "3", "--r", "2", "--p", "1/2",
                            "--forb", files["fam_k3"]])
    assert obj["value"] == "7/8"
    assert obj["method"] == "exact"


def test_measure_prints_values_past_the_str_digit_limit(files, capsys):
    # p = 10^-250 over C(7,2) = 21 edges: the denominator has 5,251
    # digits, past the 4,300 that str() renders by default.
    p = "1/1" + "0" * 250
    obj = run_json(capsys, ["measure", "--n", "7", "--r", "2", "--p", p,
                            "--forb", files["k3"]])
    value = exact_measure(7, 2, Fraction(p),
                          EdgePredicate.forb(normalize_family([K3]))).value
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = f"{value.numerator}/{value.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > 2 * limit
    assert obj["value"] == want
    # log2 mu is about -5e-749, below float's range: it prints its own
    # 15 digits, not the -0 that float would round it to.
    assert obj["log2_value"] == f"{log2_oracle(value):.15g}"
    assert obj["log2_value"].endswith("e-749")


def test_measure_min_edges(files, capsys):
    obj = run_json(capsys, ["measure", "--n", "4", "--r", "2", "--p", "1/3",
                            "--min-edges", "0"])
    assert obj["value"] == "1/1"


def test_tau_example(files, capsys):
    obj = run_json(capsys, ["tau", "--graph", files["c4"]])
    assert obj["t"] == 2


def test_steiner_restarts_reach_fano(files, capsys):
    obj = run_json(capsys, ["steiner", "--r", "2", "--m", "3", "--n", "7",
                            "--algo", "greedy", "--restarts", "400",
                            "--seed", "0"])
    assert obj["d"] == 7
    assert obj["valid"] is True
    assert obj["uncovered_fraction"] == "0/1"


def test_steiner_writes_system(files, capsys, tmp_path):
    out = str(tmp_path / "out.json")
    obj = run_json(capsys, ["steiner", "--r", "2", "--m", "3", "--n", "9",
                            "--seed", "3", "--out", out])
    saved = json.loads(open(out, encoding="utf-8").read())
    assert saved["n"] == 9
    assert len(saved["blocks"]) == obj["d"]


def test_verify_steiner(files, capsys):
    obj = run_json(capsys, ["verify-steiner", "--system", files["system"]])
    assert obj["valid"] is True
    assert obj["d"] == 4
    assert obj["covered"] == 12


def test_cn_sequence(files, capsys):
    rows = run_json(capsys, ["cn", "--family", files["fam_k3"], "--p", "1/2",
                             "--n-list", "2,3,4"])
    assert [r["n"] for r in rows] == [2, 3, 4]
    assert rows[0]["mu"] == "1/1"
    assert rows[1]["mu"] == "7/8"
    assert rows[2]["mu"] == "41/64"
    assert rows[0]["c_n"] == "0"  # mu = 1: not "-0"


def test_mc_smoke_and_determinism(files, capsys):
    argv = ["mc", "--n", "4", "--r", "2", "--p", "1/2", "--samples", "500",
            "--seed", "11", "--forb", files["fam_k3"]]
    a = run_json(capsys, argv)
    b = run_json(capsys, argv)
    assert a == b
    assert a["hits"] <= a["samples"] == 500
    assert float(a["ci_low"]) <= float(a["estimate"]) <= float(a["ci_high"])


def test_lemma_command(files, capsys):
    obj = run_json(capsys, ["lemma", "--instance", files["instance"]])
    assert obj["d"] == 4
    assert obj["gamma"] == "1/16"
    assert len(obj["theta"]) == 4


def test_partition_command(files, capsys):
    obj = run_json(capsys, ["partition", "--instance", files["instance"]])
    assert obj["identity_ok"] is True
    assert obj["weighted_sum"] == "1651/4096"
    assert obj["weighted_sum"] == obj["theta_sum"]


def test_tailmass_command(files, capsys):
    obj = run_json(capsys, ["tailmass", "--nu", "1/2", "--d", "4",
                            "--mu", "7/8", "--instance", files["instance"]])
    assert obj["value"] == "32193/4096"
    assert obj["dominates"] is True


def test_tailmass_wrong_d_refused_before_the_scan(files, capsys, walks):
    code, out, err = run(capsys, ["tailmass", "--nu", "1/2", "--d", "5",
                                  "--mu", "7/8", "--instance",
                                  files["instance"]])
    assert (code, out) == (1, "")
    assert err == "error: --d 5 disagrees with instance d=4\n"
    assert walks == []


def test_tailmass_size_refused_before_the_scan(files, capsys, tmp_path,
                                              walks):
    # d = 5 blocks and a 4,001-digit denominator: 5 x 13,288 bits of b^d
    blocks = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6))
    path = str(tmp_path / "inst7.json")
    save_instance(Instance(n=7, r=2, p=Fraction(1, 2),
                           predicate=EdgePredicate.min_edges(3),
                           family=normalize_family([K3]),
                           system=SteinerSystem(2, 3, 7, blocks)), path)
    code, out, err = run(capsys, ["tailmass", "--nu", "1/2", "--d", "5",
                                  "--mu", "1/1" + "0" * 4000,
                                  "--instance", path])
    assert (code, out) == (1, "")
    assert err == ("error: tail mass of about 66440 bits exceeds the limit "
                   "of 65536 bits\n")
    assert walks == []


def test_cn_refuses_a_later_n_before_the_walk(files, capsys, walks):
    code, out, err = run(capsys, ["cn", "--family", files["k3"], "--p", "1/2",
                                  "--n-list", "3,30"])
    assert (code, out) == (1, "")
    assert err == ("error: mask space 2^435 for (n=30, r=2) exceeds the "
                   "exact cap 2^24; no sampled fallback exists yet above "
                   "C(n,r) = 63 bits\n")
    assert walks == []


def test_xset_command(files, capsys):
    obj = run_json(capsys, ["xset", "--instance", files["instance"],
                            "--gamma", "1/8"])
    assert obj["averaging_ok"] is True
    assert obj["x_size"] == len(obj["x_members"])


def test_floor_command(files, capsys):
    obj = run_json(capsys, ["floor", "--n", "10", "--m", "4", "--t", "2"])
    assert obj["ratio"] == "15/2"
    assert obj["floor"] == "25/16"
    assert obj["ok"] is True and obj["proviso_met"] is True


def test_exstar_command(files, capsys):
    obj = run_json(capsys, ["exstar", "--n", "4", "--graph", files["k3"]])
    assert obj["value"] == 4
    assert len(obj["E"]) == 4


def test_witness_command(files, capsys):
    ok = run_json(capsys, ["witness", "--n", "4", "--graph", files["k3"],
                           "--e", "0-2,0-3,1-2,1-3"])
    assert ok["ok"] is True
    bad = run_json(capsys, ["witness", "--n", "3", "--graph", files["k3"],
                            "--e", "0-1", "--e0", "0-2,1-2"])
    assert bad["ok"] is False
    assert bad["counterexample"] == [[0, 1]]


def test_count_induced_command(files, capsys):
    obj = run_json(capsys, ["count-induced", "--graph", files["c4"],
                            "--family", files["fam_k3"]])
    assert obj == {"count": 0, "contains": False}
    obj = run_json(capsys, ["count-induced", "--graph", files["k3"],
                            "--family", files["fam_k3"]])
    assert obj == {"count": 1, "contains": True}


def test_codec_command(files, capsys, tmp_path):
    obj = run_json(capsys, ["codec", "--input", files["k3"], "--to", "g6"])
    assert obj["g6"] == "Bw"
    as_json = run_json(capsys, ["codec", "--input", files["k3"],
                                "--to", "json"])
    assert as_json["n"] == 3 and as_json["r"] == 2
    out = str(tmp_path / "k3.json")
    run_json(capsys, ["codec", "--input", files["k3"], "--out", out])
    round_tripped = run_json(capsys, ["codec", "--input", out, "--to", "g6"])
    assert round_tripped["g6"] == "Bw"


def test_usage_error_no_predicate(files, capsys):
    code, out, err = run(capsys, ["measure", "--n", "3", "--r", "2",
                                  "--p", "1/2"])
    assert code == 2
    assert out == ""
    assert "usage error" in err


def test_usage_error_two_predicates(files, capsys):
    code, out, err = run(capsys, ["measure", "--n", "3", "--r", "2",
                                  "--p", "1/2", "--forb", files["fam_k3"],
                                  "--min-edges", "1"])
    assert code == 2
    assert out == ""


def test_usage_error_missing_seed(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--n", "4", "--r", "2", "--p", "1/2", "--samples", "10",
              "--forb", files["fam_k3"]])
    assert exc.value.code == 2


def test_domain_error_missing_file(files, capsys):
    code, out, err = run(capsys, ["tau", "--graph",
                                  files["root"] + "/nope.g6"])
    assert code == 1
    assert out == ""
    assert "error" in err


def test_domain_error_infeasible(files, capsys):
    code, out, err = run(capsys, ["measure", "--n", "9", "--r", "2",
                                  "--p", "1/2", "--forb", files["fam_k3"],
                                  "--cap", "20"])
    assert code == 1
    assert out == ""
    assert "mc_measure" in err


def test_lemma_over_the_cap_names_a_working_cap(files, capsys, tmp_path):
    # lemma has no sampled route: over the cap it names the --cap that
    # runs it, and that --cap does.
    path = tmp_path / "inst7.json"
    path.write_text(_instance(n=7, system_n=7))
    argv = ["lemma", "--instance", str(path)]
    code, out, err = run(capsys, argv + ["--cap", "20"])
    assert (code, out) == (1, "")
    assert err == ("error: mask space 2^21 for (n=7, r=2) exceeds the exact "
                   "cap 2^20; raise --cap to 21\n")
    assert run_json(capsys, argv + ["--cap", "21"])["d"] == 1


@pytest.mark.parametrize("p", ["1/1000000", "1/10000000000"])
def test_sparse_log2_and_cn_hold_15_digits(files, capsys, p):
    # mu_n is within 10^-16 of 1 here, so log2 mu_n and c_n rest on the
    # exact 1 - mu_n; each prints the 15 digits of a reference of at least
    # 640 bits.
    def digits(x):
        return f"{float(x):.15g}"

    row = run_json(capsys, ["measure", "--n", "7", "--r", "2", "--p", p,
                            "--forb", files["k3"]])
    assert row["log2_value"] == digits(log2_oracle(Fraction(row["value"])))
    points = run_json(capsys, ["cn", "--family", files["k3"], "--p", p,
                               "--n-list", "3,7"])
    assert points[1]["mu"] == row["value"]
    for pt, edges in zip(points, (3, 21)):
        assert pt["c_n"] == digits(-log2_oracle(Fraction(pt["mu"])) / edges)
    assert float(points[0]["c_n"]) > 0


def test_count_induced_refuses_a_long_walk(files, capsys, tmp_path):
    # An 8-vertex member in a 30-vertex graph: C(30, 8) subsets, past 2^22.
    big, path8 = str(tmp_path / "e30.g6"), str(tmp_path / "p8.g6")
    save_graph(graph_from_edges(30, 2, []), big)
    save_graph(graph_from_edges(8, 2, [(i, i + 1) for i in range(7)]), path8)
    code, out, err = run(capsys, ["count-induced", "--graph", big,
                                  "--family", path8])
    assert (code, out) == (1, "")
    assert err == ("error: induced count over 5852925 vertex subsets exceeds "
                   "the limit 2^22\n")


def test_infeasible_beyond_sampling_names_no_fallback(files, capsys):
    # C(12,2) = 66 bits: too wide for the exact scan and for mc alike.
    code, out, err = run(capsys, ["measure", "--n", "12", "--r", "2",
                                  "--p", "1/2", "--forb", files["fam_k3"]])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "mc_measure" not in err and "no sampled fallback" in err


SCIPY_PROBE = """
import sys
import hlab.cli

def loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

assert hlab.cli.main(["cn", "--family", sys.argv[1], "--p", "1/2",
                      "--n-list", "3,4"]) == 0
assert loaded() == [], loaded()
assert hlab.cli.main(["mc", "--n", "4", "--r", "2", "--p", "1/2",
                      "--samples", "100", "--seed", "0",
                      "--forb", sys.argv[1]]) == 0
assert "scipy.special" in sys.modules
assert "scipy.stats" not in sys.modules, loaded()
assert "mpmath" not in sys.modules
"""


def _source_tree_env() -> dict:
    """The environment with the imported hlab's source tree on PYTHONPATH,
    so a fresh interpreter imports the same package."""
    from pathlib import Path

    import hlab

    src = str(Path(hlab.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_scipy_loaded_only_by_mc(files):
    # A fresh interpreter: only mc's interval needs scipy, and only
    # scipy.special, so every other command starts without it; no command
    # loads mpmath, which only the tests use.
    import subprocess
    import sys as _sys

    proc = subprocess.run([_sys.executable, "-c", SCIPY_PROBE,
                           files["fam_k3"]],
                          capture_output=True, text=True,
                          env=_source_tree_env())
    assert proc.returncode == 0, proc.stderr


def test_domain_error_bad_graph_file(files, capsys, tmp_path):
    bad = tmp_path / "broken.g6"
    bad.write_text("C~\x01zz\n")
    code, out, err = run(capsys, ["tau", "--graph", str(bad)])
    assert code == 1
    assert out == ""


def csv_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return json.dumps(value, separators=(",", ":"))


def test_csv_and_json_values_agree(files, capsys):
    base = ["measure", "--n", "4", "--r", "2", "--p", "1/2",
            "--forb", files["fam_k3"]]
    obj = run_json(capsys, base + ["--format", "json"])
    code, out, err = run(capsys, base + ["--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert set(rows[0]) == set(obj)
    for key, val in obj.items():
        assert rows[0][key] == csv_cell(val)


def test_csv_and_json_agree_on_nested(files, capsys):
    base = ["verify-steiner", "--system", files["system"]]
    obj = run_json(capsys, base)
    code, out, err = run(capsys, base + ["--format", "csv"])
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    for key, val in obj.items():
        assert row[key] == csv_cell(val)


def test_output_byte_identical_across_workers(files, capsys):
    base = ["xset", "--instance", files["instance"], "--gamma", "1/8"]
    outs = []
    for workers in ("1", "4"):
        code, out, err = run(capsys, base + ["--workers", workers])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    code, out, err = run(capsys, base + ["--workers", "1"])
    assert out == outs[0]


def test_cn_workers_identical(files, capsys):
    base = ["cn", "--family", files["fam_k3"], "--p", "1/2",
            "--n-list", "2,3,4,5"]
    a = run(capsys, base + ["--workers", "1"])
    b = run(capsys, base + ["--workers", "8"])
    assert a[1] == b[1]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_run_serially(files, capsys, workers):
    # A worker count below one schedules the blocks on the calling thread.
    for base in (["cn", "--family", files["fam_k3"], "--p", "1/2",
                  "--n-list", "2,3,4,5"],
                 ["measure", "--n", "5", "--r", "2", "--p", "1/3",
                  "--forb", files["c4"]],
                 ["lemma", "--instance", files["instance"]]):
        serial = run(capsys, base + ["--workers", "1"])
        assert serial[0] == 0
        assert run(capsys, base + ["--workers", workers]) == serial


def test_console_script_entry_point(files):
    import subprocess
    import sys as _sys

    proc = subprocess.run(
        [_sys.executable, "-m", "hlab.cli", "tau", "--graph", files["c4"]],
        capture_output=True, text=True, env=_source_tree_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["t"] == 2


def test_commands_in_one_process_match_fresh_runs(files, capsys):
    # main builds its parser once per process: every command, before and
    # after a usage error, must print what a fresh interpreter prints.
    import subprocess
    import sys as _sys

    cases = [
        ["measure", "--n", "5", "--r", "2", "--p", "1/3",
         "--forb", files["c4"]],
        ["floor", "--n", "10", "--m", "4", "--t", "2", "--gamma", "abc"],
        ["partition", "--instance", files["instance"], "--format", "csv"],
        ["tau", "--graph", files["c4"]],
        ["mc", "--n", "4", "--r", "2", "--p", "1/2", "--samples", "10"],
        ["xset", "--instance", files["instance"], "--gamma", "1/8",
         "--workers", "2"],
        ["witness", "--n", "4", "--graph", files["k3"], "--e", "0-1,1-2"],
    ]
    codes = []
    for argv in cases:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        codes.append(code)
        captured = capsys.readouterr()
        fresh = subprocess.run([_sys.executable, "-m", "hlab.cli", *argv],
                               capture_output=True, text=True,
                               env=_source_tree_env())
        assert (code, captured.out) == (fresh.returncode, fresh.stdout)
        if code == 2:
            assert captured.out == ""
            assert captured.err.startswith("usage error: ")
            assert captured.err.count("\n") == 1
            assert captured.err == fresh.stderr
    assert codes == [0, 2, 0, 0, 2, 0, 0]


@pytest.mark.parametrize("n, within", [("3", "0,1,9"), ("4", "0,1,1,2")])
def test_domain_error_bad_within(files, capsys, n, within):
    code, out, err = run(capsys, ["measure", "--n", n, "--r", "2",
                                  "--p", "1/2", "--contains", files["k3"],
                                  "--within", within])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and "vertex set" in err


@pytest.mark.parametrize("text", ['{"r":2', '{"m": 3, "n": 7, "blocks": []}'],
                         ids=["truncated", "no-r"])
def test_domain_error_malformed_system_file(files, capsys, tmp_path, text):
    bad = tmp_path / "system.json"
    bad.write_text(text)
    code, out, err = run(capsys, ["verify-steiner", "--system", str(bad)])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_zero_restarts(files, capsys):
    code, out, err = run(capsys, ["steiner", "--r", "2", "--m", "3", "--n", "7",
                                  "--seed", "0", "--restarts", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and "--restarts" in err


@pytest.mark.parametrize("argv", [
    ["floor", "--n", "10", "--m", "4", "--t", "2", "--gamma", "abc"],
    ["floor", "--n", "10", "--m", "4", "--t", "2", "--eta", "abc"],
    ["tailmass", "--nu", "abc", "--d", "3", "--mu", "1/2"],
    ["tailmass", "--nu", "1/2", "--d", "3", "--mu", "abc"],
    ["xset", "--instance", "unused.json", "--gamma", "abc"],
    ["measure", "--n", "3", "--r", "2", "--p", "abc", "--min-edges", "1"],
    ["measure", "--n", "3", "--r", "2", "--p", "1/0", "--min-edges", "1"],
    ["steiner", "--r", "2", "--m", "3", "--n", "7", "--seed", "0",
     "--algo", "nibble", "--bite", "abc"],
], ids=["floor-gamma", "floor-eta", "tailmass-nu", "tailmass-mu", "xset-gamma",
        "measure-p", "measure-p-zero-denominator", "steiner-bite"])
def test_usage_error_bad_rational(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["mc", "--n", "3", "--r", "2", "--p", "1/2", "--samples", "10",
     "--seed", "0", "--min-edges", "0"],
    ["steiner", "--r", "2", "--m", "3", "--n", "7", "--seed", "0"],
    ["verify-steiner", "--system", "{system}"],
    ["floor", "--n", "10", "--m", "4", "--t", "2"],
    ["tau", "--graph", "{k3}"],
    ["exstar", "--n", "3", "--graph", "{k3}"],
    ["witness", "--n", "4", "--graph", "{k3}"],
    ["count-induced", "--graph", "{c4}", "--family", "{k3}"],
    ["codec", "--input", "{k3}"],
], ids=lambda argv: argv[0])
def test_cap_only_where_a_mask_space_is_scanned(files, capsys, argv):
    argv = [a.format(**files) for a in argv]
    assert run(capsys, argv)[0] == 0
    refused = ["--cap"]
    # mc schedules its samples on --workers; steiner and exstar schedule
    # nothing but keep the flag, which perfbench/run.py passes to every
    # command
    if argv[0] in ("mc", "steiner", "exstar"):
        assert run(capsys, argv + ["--workers", "2"]) == run(capsys, argv)
    else:
        refused.append("--workers")
    for flag in refused:
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "5"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert flag in captured.err
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("family", ["p5", "c4"])
def test_full_scan_byte_identical_across_workers(files, capsys, family):
    # P5 (orbit 60) takes the sliced-table gather, C4 (orbit 3) the masked
    # compare.  --contains is not hereditary, so its 2^21 masks make
    # several chunks of the full scan for the workers to split; --forb
    # runs the vertex extension, several 2^16-candidate blocks at n = 7.
    for flag in ("--contains", "--forb"):
        base = ["measure", "--n", "7", "--r", "2", "--p", "1/3",
                flag, files[family]]
        outs = [run(capsys, base + ["--workers", w]) for w in ("1", "2")]
        assert outs[0][0] == outs[1][0] == 0
        assert outs[0][1] == outs[1][1]


def test_extension_byte_identical_across_workers(files, capsys, tmp_path):
    from hlab.family import normalize_family
    from hlab.measure import predicate_to_json_obj

    pred = EdgePredicate.intersection([
        EdgePredicate.max_edges(12), EdgePredicate.forb(normalize_family([P5]))])
    pred_file = tmp_path / "pred.json"
    pred_file.write_text(json.dumps(predicate_to_json_obj(pred)))
    cn = ["cn", "--family", files["c4"], "--p", "1/3", "--n-list", "7,3,5"]
    measure = ["measure", "--n", "7", "--r", "2", "--p", "1/3",
               "--forb", files["c4"]]
    capped = ["measure", "--n", "7", "--r", "2", "--p", "1/2",
              "--predicate", str(pred_file)]
    for base in (cn, measure, capped):
        outs = [run(capsys, base + ["--workers", w]) for w in ("1", "2")]
        assert outs[0][0] == 0
        assert outs[0] == outs[1]
    # The one cn pass gives each n the value measure computes for it alone.
    points = run_json(capsys, cn)
    assert [pt["n"] for pt in points] == [7, 3, 5]
    for pt in points:
        alone = run_json(capsys, measure[:2] + [str(pt["n"])] + measure[3:])
        assert pt["mu"] == alone["value"]


def test_hereditary_instance_byte_identical_across_workers(files, capsys,
                                                          tmp_path):
    # A forb class takes the vertex levels in partition and xset too.
    from hlab.family import normalize_family

    sys6 = SteinerSystem(r=2, m=3, n=6,
                         blocks=((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)))
    inst = Instance(n=6, r=2, p=Fraction(1, 3),
                    predicate=EdgePredicate.forb(normalize_family([C4])),
                    family=normalize_family([K3]), system=sys6,
                    params=LemmaParameters(nu=Fraction(1, 4), m=3))
    path = str(tmp_path / "forb.json")
    save_instance(inst, path)
    for base in (["partition", "--instance", path],
                 ["xset", "--instance", path, "--gamma", "1/8"]):
        outs = [run(capsys, base + ["--workers", w]) for w in ("1", "2")]
        assert outs[0][0] == 0
        assert outs[0] == outs[1]


_EXPLICIT = ["measure", "--n", "4", "--r", "2", "--p", "1/2",
             "--predicate", "{pred}"]
_LEMMA = ["lemma", "--instance", "{pred}"]


def _instance(p="1/2", n=4, r=2, system_n=4, **params):
    """A lemma instance file with n, r, p, the system's n and params
    overridden; the family and the system's one block stay as they are."""
    return json.dumps({
        "n": n, "r": r, "p": p, "predicate": {"kind": "min_edges", "k": 2},
        "family": [{"n": 3, "r": 2, "edges": [[0, 1], [0, 2], [1, 2]]}],
        "system": {"r": 2, "m": 3, "n": system_n, "blocks": [[0, 1, 2]]},
        "params": {"nu": "1/4", "m": 3, **params}})


@pytest.mark.parametrize("argv, pred, code", [
    (_EXPLICIT, '{"kind":"explicit","masks":[-1]}', 1),
    (_EXPLICIT, '{"kind":"explicit","masks":[18446744073709551616]}', 1),
    (_EXPLICIT, '{"kind":"explicit","masks":[9999]}', 1),
    (_EXPLICIT, '{"kind":"explicit","masks":[18446744073709551615]}', 1),
    (_EXPLICIT, '{"kind":"explicit","masks":[1.5]}', 1),
    (_EXPLICIT, "{bad", 1),
    (["cn", "--family", "{k3}", "--p", "1/2", "--n-list", "2,x"], None, 2),
    (["cn", "--family", "{k3}", "--p", "1/2", "--n-list", ""], None, 2),
    (["cn", "--family", "{k3}", "--p", "1/2", "--n-list", "",
      "--format", "csv"], None, 2),
    (["measure", "--n", "4", "--r", "2", "--p", "1/2", "--contains", "{k3}",
      "--within", "0,x"], None, 2),
    (["witness", "--n", "4", "--graph", "{k3}", "--e", "0-x"], None, 2),
    (["measure", "--n", "-1", "--r", "2", "--p", "1/2", "--forb", "{k3}"],
     None, 1),
    (["measure", "--n", "4", "--r", "-1", "--p", "1/2", "--min-edges", "0"],
     None, 1),
    (["mc", "--n", "4", "--r", "-2", "--p", "1/2", "--samples", "10",
      "--seed", "0", "--min-edges", "0"], None, 1),
    (["mc", "--n", "4", "--r", "2", "--p", "1/2", "--min-edges", "0",
      "--samples", "100000000000000", "--seed", "0"], None, 1),
    (["cn", "--family", "{k3}", "--p", "1/2", "--n-list", "-1"], None, 1),
    (["measure", "--n", "4", "--r", "2", "--p", "1/2", "--forb", "{k3}",
      "--cap", "-1"], None, 1),
    (["measure", "--n", "3", "--r", "2", "--p", "1/2", "--forb", "{k3}",
      "--within", "0,1"], None, 2),
    (["measure", "--n", "3", "--r", "2", "--p", "1/2", "--predicate",
      "{pred}"], '{"kind":"min_edges","k":1.5}', 1),
    (["measure", "--n", "3", "--r", "2", "--p", "1/2", "--predicate",
      "{pred}"], '{"kind":"contains","within":[0.5,1,2],"family":'
                 '[{"n":3,"r":2,"edges":[[0,1],[0,2],[1,2]]}]}', 1),
    (["codec", "--input", "{pred}"],
     '{"n":3.7,"r":2,"edges":[[0,1.9]]}', 1),
    (["verify-steiner", "--system", "{pred}"],
     '{"r":2,"m":3,"n":4,"blocks":[[0,1,2.5]]}', 1),
    (["verify-steiner", "--system", "{pred}"],
     '{"r":-1,"m":3,"n":4,"blocks":[[0,1,2]]}', 1),
    (["steiner", "--r", "2", "--m", "3", "--n", "600", "--seed", "0"],
     None, 1),
    (["steiner", "--r", "2", "--m", "3", "--n", "7", "--seed", "0",
      "--restarts", "1000000000"], None, 1),
    (["verify-steiner", "--system", "{pred}"], json.dumps(
        {"r": 20, "m": 40, "n": 40, "blocks": [list(range(40))]}), 1),
    (_LEMMA, _instance(p=0.1), 1),
    (_LEMMA, _instance(p=True), 1),
    (_LEMMA, _instance(gamma=True), 1),
    (_LEMMA, _instance(p="1/0"), 1),
    (_LEMMA, _instance(nu="1/0"), 1),
    (_LEMMA, _instance(n=5), 1),
    (["partition", "--instance", "{pred}"], _instance(n=5), 1),
    (["xset", "--instance", "{pred}"], _instance(n=5), 1),
    (["tailmass", "--nu", "1/2", "--d", "1", "--mu", "7/8", "--instance",
      "{pred}"], _instance(n=5), 1),
    (["xset", "--instance", "{pred}"], _instance(r=3), 1),
    (_LEMMA, _instance(m=4), 1),
    (["tailmass", "--nu", "1/2", "--d", "100000", "--mu", "7/8"], None, 1),
    (["floor", "--n", "10000000", "--m", "5000000", "--t", "5000"], None, 1),
    (["verify-steiner", "--system", "{pred}"],
     '{"r":2,"m":3,"n":1' + "0" * 5000 + ',"blocks":[[0,1,2]]}', 1),
    (_LEMMA, _instance(n=8, system_n=8), 1),
    (["partition", "--instance", "{pred}"], _instance(n=8, system_n=8), 1),
    (["xset", "--instance", "{pred}"], _instance(n=8, system_n=8), 1),
    (["tailmass", "--nu", "1/2", "--d", "1", "--mu", "7/8", "--instance",
      "{pred}"], _instance(n=8, system_n=8), 1),
], ids=["explicit-negative", "explicit-2^64", "explicit-9999",
        "explicit-2^64-1", "explicit-float", "predicate-bad-json",
        "cn-n-list", "cn-n-list-empty", "cn-n-list-empty-csv",
        "measure-within", "witness-e", "measure-n-negative",
        "measure-r-negative", "mc-r-negative", "mc-samples-huge",
        "cn-n-negative", "measure-cap-negative",
        "within-without-contains", "min-edges-float", "within-float",
        "codec-float", "steiner-block-float", "steiner-r-negative",
        "steiner-table-huge", "steiner-restarts-huge",
        "verify-steiner-block-huge",
        "instance-p-float", "instance-p-bool", "instance-gamma-bool",
        "instance-p-zero-denominator", "instance-nu-zero-denominator",
        "instance-n-lemma", "instance-n-partition", "instance-n-xset",
        "instance-n-tailmass", "instance-r-family", "instance-m-system",
        "tailmass-size-huge", "floor-size-huge", "json-int-huge",
        "cap-lemma", "cap-partition", "cap-xset", "cap-tailmass"])
def test_rejected_input_one_error_line(files, capsys, tmp_path, argv, pred,
                                       code):
    (tmp_path / "pred.json").write_text(pred or "")
    argv = [a.format(k3=files["k3"], pred=tmp_path / "pred.json")
            for a in argv]
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: " if code == 1 else "usage error: ")
    # no row is a measure over the cap, the one error with a sampled route
    assert "mc_measure" not in captured.err


def test_empty_within_is_an_empty_scope(files, capsys, tmp_path):
    # No vertex set of size 3 lies inside no vertices, so nothing contains K3.
    (tmp_path / "pred.json").write_text(json.dumps(
        {"kind": "contains", "within": [],
         "family": [{"n": 3, "r": 2, "edges": [[0, 1], [0, 2], [1, 2]]}]}))
    space = ["--n", "4", "--r", "2", "--p", "1/2"]
    sampled = ["--samples", "500", "--seed", "3"]
    for scope in (["--contains", files["k3"], "--within", ""],
                  ["--predicate", str(tmp_path / "pred.json")]):
        assert run_json(capsys, ["measure", *space, *scope])["value"] == "0/1"
        assert run_json(capsys, ["mc", *space, *sampled, *scope])["hits"] == 0
    full = run_json(capsys, ["measure", *space, "--contains", files["k3"]])
    assert full["value"] == "23/64"


def test_steiner_verifies_only_the_winner(files, capsys, monkeypatch):
    import hlab.steiner as steiner
    calls = []
    real = steiner.verify_system
    monkeypatch.setattr(steiner, "verify_system",
                        lambda *a: calls.append(a) or real(*a))
    obj = run_json(capsys, ["steiner", "--r", "2", "--m", "3", "--n", "7",
                            "--seed", "0", "--restarts", "50"])
    assert obj["valid"] is True
    assert len(calls) == 1


def test_steiner_rejects_invalid_winner(files, capsys, monkeypatch):
    import hlab.steiner as steiner
    monkeypatch.setattr(steiner, "_packings", lambda r, m, n, seeds, **k: [
        ([2] * len(seeds), ((0, 1, 2), (0, 1, 3)))])
    code, out, err = run(capsys, ["steiner", "--r", "2", "--m", "3",
                                  "--n", "7", "--seed", "0",
                                  "--restarts", "5"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not a partial Steiner system" in err


@pytest.mark.parametrize("algo", ["greedy", "nibble"])
def test_steiner_search_script_agrees_with_cli(files, capsys, algo):
    from test_scripts import load_script
    argv = ["--r", "2", "--m", "3", "--n", "9", "--algo", algo]
    obj = run_json(capsys, ["steiner", *argv, "--seed", "4",
                            "--restarts", "30"])
    assert load_script("steiner_search").main(
        [*argv, "--first-seed", "4", "--seeds", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    best = next(line for line in lines if line.startswith("best: "))
    assert best.startswith(f"best: d = {obj['d']} at seed {obj['seed']},")

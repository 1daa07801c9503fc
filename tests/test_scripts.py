"""Smoke tests: each script in scripts/ runs on a small input."""

import importlib.util
from pathlib import Path

from hlab.codec import save_graph
from hlab.hypergraph import complete_graph

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(capsys, name, argv):
    code = load_script(name).main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out.splitlines()


def test_cn_table(capsys, tmp_path):
    fam = tmp_path / "K3.g6"
    save_graph(complete_graph(3, 2), str(fam))
    lines = run_script(capsys, "cn_table", ["--family", str(fam), "--n", "2", "5"])
    row = next(line.split() for line in lines if line.split()[:1] == ["3"])
    assert row[2] == "7/8"


def test_steiner_search(capsys):
    lines = run_script(capsys, "steiner_search",
                       ["--r", "2", "--m", "3", "--n", "7", "--seeds", "50"])
    assert any(line.startswith("best: d = 7 ") for line in lines)


def test_lemma_instance(capsys):
    lines = run_script(capsys, "lemma_instance", ["--n", "6"])
    assert any("averaging_ok=True" in line for line in lines)

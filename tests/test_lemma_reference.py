"""The lemma pipeline of the benchmark's `exact` workload, against the
stdout recorded in perfbench/reference/exact.json.

The inputs are built by perfbench/workloads.py at its default seed, the
seed of the recording, so a drift in these outputs fails here and not
only in the benchmark.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from hlab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LEMMA_COMMANDS = ("lemma", "partition", "tailmass", "xset")


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def lemma_pipeline(tmp_path_factory):
    """(argv, recorded stdout) of each lemma-pipeline command."""
    workloads = load_workloads()
    cmds = workloads.make_inputs("exact", workloads.DEFAULT_SEED,
                                 tmp_path_factory.mktemp("exact"))
    refs = workloads.load_reference("exact")
    assert len(refs) == len(cmds)
    pairs = [(argv, ref) for argv, ref in zip(cmds, refs)
             if argv[0] in LEMMA_COMMANDS]
    assert [argv[0] for argv, _ in pairs] == list(LEMMA_COMMANDS)
    return pairs


@pytest.mark.parametrize("workers", [1, 2])
def test_lemma_pipeline_matches_the_benchmark_reference(lemma_pipeline,
                                                       workers):
    for argv, ref in lemma_pipeline:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--workers", str(workers)])
        assert code == 0, argv
        assert out.getvalue() == ref, argv[0]

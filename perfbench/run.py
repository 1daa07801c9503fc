"""hlab benchmark: seeded workloads of `hlab` CLI commands, run in-process.

    python3 perfbench/run.py --workload exact --seed 0 --seconds 55 --trace 0

Every command goes through `hlab.cli.main(argv)` with stdout and stderr
captured, at `--workers 1`, from this one process.  `--trace 0`
alternates set-up probes with warm passes over the workload's command
list and prints the end-to-end metrics named in BENCHMARK.json;
`--trace 1` makes traced passes (see tracer.py) and prints the
per-layer metrics.  Every command's output is
checked (workloads.py).  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; quartiles, sample
counts and problems go to stderr, and a traced run writes its spans to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer, cache_stats, clear_caches, hlab_modules

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
MIN_PASSES = 3


def load_program():
    """Import hlab from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hlab.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import hlab from {src}: {exc}")
    if not Path(hlab.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: hlab imported from {hlab.cli.__file__}, "
                         f"not from {src}")
    return hlab.cli


def run_command(cli, argv: list) -> tuple:
    """(exit code, stdout, stderr) of one `hlab` invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_pass(cli, cmds: list, workers: int = 1, tracer=None) -> tuple:
    """Wall seconds and per-command results of one pass over cmds."""
    results = []
    t0 = perf_counter()
    for i, argv in enumerate(cmds):
        if tracer is not None:
            tracer.request = i
        results.append(run_command(cli, argv + ["--workers", str(workers)]))
    return perf_counter() - t0, results


class Ledger:
    """Attempted and failed commands, and every problem seen."""

    def __init__(self, workloads, seed: int, cmds: list, refs: list):
        self.workloads, self.seed, self.cmds, self.refs = workloads, seed, cmds, refs
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, results: list) -> None:
        for argv, ref, (code, out, err) in zip(self.cmds, self.refs, results):
            self.attempted += 1
            bad = []
            if code != 0:
                bad.append(f"{argv[0]}: exit code {code}: {err.strip()[-300:]}")
            elif "Traceback" in err:
                bad.append(f"{argv[0]}: Traceback on stderr")
            else:
                bad = self.workloads.check(argv, self.seed, out, ref)
            if bad:
                self.failed += 1
                self.problems.extend(bad)

    def same_stdout(self, label: str, a: list, b: list) -> None:
        if [r[1] for r in a] != [r[1] for r in b]:
            self.problems.append(f"stdout differs between {label}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"mean": statistics.fmean(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values)}


def setup_probe(workload: str, seed: int, inputs: Path,
                importtime: bool = False) -> dict:
    """Run the set-up probe once, in a fresh interpreter."""
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run(
        [sys.executable, *flags, str(BENCH_DIR / "setup_probe.py"),
         workload, str(seed), str(inputs)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr[-2000:]}")
    row = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        row["scipy_import_s"] = scipy_import_seconds(proc.stderr)
    return row


def scipy_import_seconds(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules in a
    `-X importtime` log (children are printed before, and indented
    deeper than, the module that imported them)."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(cumulative)))
    total, stack = 0, []  # (depth, inside scipy) of the enclosing modules
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total += cumulative
        stack.append((depth, inside or is_scipy))
    return total / 1e6


def end_to_end(cli, workloads, ledger, cmds, seconds, probe) -> dict:
    """Rounds of one set-up probe and one warm pass, for `seconds`.

    The shared host slows this process by up to ~1.6x in busy periods
    that last tens of seconds, so pass times are bimodal.  Each figure
    is the mean over the run: it moves in proportion to the share of
    the run that fell in a busy period, where a median jumps between
    the two modes.  Medians and quartiles go to stderr."""
    ledger.record(run_pass(cli, cmds)[1])  # warm caches and lazy set-up
    times, setups = [], []
    start = perf_counter()
    last = 0.0
    # start no round that would end past the run's time
    while len(times) < MIN_PASSES or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        setups.append(probe()["setup_s"])
        wall, results = run_pass(cli, cmds)
        ledger.record(results)
        times.append(wall)
        last = perf_counter() - t0
    wall_s = statistics.fmean(times)
    detail = {"wall_s": summary(times), "setup_s": summary(setups),
              "passes_s": times}
    print(json.dumps(detail), file=sys.stderr)
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": wall_s, "setup_s": statistics.fmean(setups),
            "peak_rss_mb": kib / 1024,
            "masks_per_s": workloads.problem_size(cmds) / wall_s}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _hit_ratio(before: dict, after: dict, key: str) -> float:
    if key not in after:
        print(f"note: no cache {key}; its hit ratio reads 0", file=sys.stderr)
        return 0.0
    hits = after[key][0] - before[key][0]
    misses = after[key][1] - before[key][1]
    return _ratio(hits, hits + misses)


def layer_metrics(tr, stdout_bytes: int) -> dict:
    """Per-layer figures of one traced pass."""
    s, c = tr.self_seconds(), tr.counts

    def self_of(*names):
        return sum(s[n] for n in names)

    layers = {m.__name__.removeprefix("hlab."): 0.0 for m in hlab_modules()}
    for name, sec in s.items():
        layers[name.split(".")[0]] += sec
    built = sum(c[f"steiner.{f}"] for f in ("greedy_system", "nibble_system",
                                            "permute_system",
                                            "system_from_json_obj"))
    out = {f"{layer}.self_s": sec for layer, sec in layers.items()}
    out.update({
        "cli.stdout_bytes": stdout_bytes,
        "codec.load_s": self_of("codec.load_graph", "codec.load_graph_list",
                                "codec.decode_graph6", "codec.decode_json",
                                "codec.graph_from_json_obj"),
        "codec.files_loaded": c["codec.load_graph"] + c["codec.load_graph_list"],
        "hypergraph.rank_table_s": self_of("hypergraph.induced_rank_table"),
        "family.batch_contains_s": self_of("family.batch_contains"),
        "family.batch_contains_calls": c["family.batch_contains"],
        "family.row_masks": c["family.row_masks"],
        "family.row_masks_per_s": _ratio(c["family.row_masks"],
                                         s["family.batch_contains"]),
        "family.count_induced_s": self_of("family.count_induced",
                                          "family.contains_induced"),
        "measure.exact_s": self_of("measure.exact_measure",
                                   "measure.satisfying_count",
                                   "measure.cn_sequence"),
        "measure.scans": c["measure.scans"],
        "measure.masks_enumerated": c["measure.masks_enumerated"],
        "measure.rational_s": self_of("measure.value_from_histogram",
                                      "measure.weight_powers",
                                      "measure.log2_fraction",
                                      "measure.cn_from_measure"),
        "measure.mc_s": self_of("measure.mc_measure"),
        "measure.sample_masks_s": self_of("measure.sample_masks"),
        "measure.samples": c["measure.samples"],
        "measure.ci_s": self_of("measure.clopper_pearson"),
        "rng.substream_blocks_s": self_of("rng.substream_blocks",
                                          "rng.stream_keys"),
        "rng.block_draws": c["rng.block_draws"],
        "rng.scalar_draws": c["rng.Rng.next_u64"],
        "rng.shuffle_s": self_of("rng.Rng.shuffle"),
        "steiner.construct_s": self_of("steiner.greedy_system",
                                       "steiner.nibble_system",
                                       "steiner.permute_system"),
        "steiner.systems_built": built,
        "steiner.verify_s": self_of("steiner.verify_system"),
        "steiner.verify_calls_per_system": _ratio(c["steiner.verify_system"],
                                                  built),
        "steiner.maximality_s": self_of("steiner.maximality_report"),
        "supersat.lemma_report_s": self_of("supersat.lemma_report"),
        "supersat.partition_table_s": self_of("supersat.partition_table"),
        "supersat.x_set_s": self_of("supersat.x_set"),
        "supersat.tail_mass_s": self_of("supersat.tail_mass"),
        "supersat.block_theta_calls": c["supersat.block_theta"],
        "extremal.exstar_s": self_of("extremal.exstar"),
        "extremal.witness_check_s": self_of("extremal.witness_check"),
        "extremal.tau_s": self_of("extremal.tau"),
    })
    return out


def traced_pass(cli, cmds: list) -> tuple:
    tr = Tracer()
    tr.install()
    try:
        wall, results = run_pass(cli, cmds, tracer=tr)
    finally:
        tr.uninstall()
    return tr, wall, results


def traced(cli, ledger, cmds, probes, out_file: Path) -> dict:
    clear_caches()  # make_inputs ran hlab code in this process
    before = cache_stats()
    cold_tr, cold_wall, cold = traced_pass(cli, cmds)  # first pass, empty caches
    after = cache_stats()
    ledger.record(cold)
    plain, traced_walls, tracers = [], [], []
    for _ in range(2):  # alternate, so drift hits both sides alike
        wall, results = run_pass(cli, cmds)
        ledger.record(results)
        ledger.same_stdout("cold and warm passes", cold, results)
        plain.append(wall)
        tr, wall, results = traced_pass(cli, cmds)
        ledger.record(results)
        ledger.same_stdout("traced and untraced passes", cold, results)
        traced_walls.append(wall)
        tracers.append(tr)
    w2_wall, w2 = run_pass(cli, cmds, workers=2)
    ledger.record(w2)
    ledger.same_stdout("--workers 1 and --workers 2", cold, w2)

    stdout_bytes = sum(len(r[1].encode()) for r in cold)
    figures = [layer_metrics(tr, stdout_bytes) for tr in tracers]
    if tracers[0].counts != tracers[1].counts:
        diff = {k: (tracers[0].counts[k], tracers[1].counts[k])
                for k in tracers[0].counts.keys() | tracers[1].counts.keys()
                if tracers[0].counts[k] != tracers[1].counts[k]}
        ledger.problems.append(f"counts differ between traced passes: {diff}")
    out = {k: statistics.median([f[k] for f in figures]) for k in figures[0]}
    wall_t, wall_u = statistics.median(traced_walls), statistics.median(plain)
    self_total = sum(v for k, v in out.items() if k.endswith(".self_s"))
    out.update({
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "cli.scipy_import_s": statistics.median(p["scipy_import_s"]
                                                for p in probes),
        "cli.error_rate": _ratio(ledger.failed, ledger.attempted),
        "measure.speedup_w2": wall_u / w2_wall,
        "trace.wall_s": wall_t,
        "trace.untraced_wall_s": wall_u,
        "trace.overhead_s": wall_t - wall_u,
        "trace.unattributed_s": wall_t - self_total,
        "trace.spans": len(tracers[-1].spans),
        # caches fill and lazy imports load in the first pass, so these
        # come from it
        "trace.cold_wall_s": cold_wall,
        "measure.cold_ci_s": cold_tr.self_seconds()["measure.clopper_pearson"],
        "hypergraph.orbit_s": cold_tr.self_seconds()["hypergraph.orbit_masks"],
        "hypergraph.canonical_hit_ratio": _hit_ratio(
            before, after, "hlab.hypergraph._canonical_mask"),
        "hypergraph.orbit_hit_ratio": _hit_ratio(
            before, after, "hlab.hypergraph._orbit_masks"),
        "family.lookup_hit_ratio": _hit_ratio(
            before, after, "hlab.family._orbit_lookup"),
    })
    out_file.parent.mkdir(parents=True, exist_ok=True)
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                              "request", "self_ns"],
                   "commands": cmds, "spans": tracers[-1].spans,
                   "counts": tracers[-1].counts, "metrics": out}, fh)
    return out


def emit(kind: str, values: dict, ledger) -> None:
    """Print the result line with exactly the metrics BENCHMARK.json names."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)[kind]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    for p in ledger.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0,
                    help="timed length of a --trace 0 run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = load_program()
    import workloads  # needs hlab on the path

    if args.workload not in workloads.NAMES:
        ap.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    work_dir = OUT_DIR / f"{args.workload}-{args.seed}"
    cmds = workloads.make_inputs(args.workload, args.seed, work_dir)
    refs = workloads.load_reference(args.workload)
    ledger = Ledger(workloads, args.seed, cmds, refs)
    if args.trace:
        probes = [setup_probe(args.workload, args.seed, work_dir, True)
                  for _ in range(SETUP_PROBES)]
        values = traced(cli, ledger, cmds, probes,
                        OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
        emit("per_layer", values, ledger)
    else:
        def probe():
            return setup_probe(args.workload, args.seed, work_dir)
        values = end_to_end(cli, workloads, ledger, cmds, args.seconds, probe)
        emit("end_to_end", values, ledger)
    return 0


if __name__ == "__main__":
    sys.exit(main())

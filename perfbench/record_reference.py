"""Record the reference stdout of every workload at the default seed.

    python3 perfbench/record_reference.py

Writes perfbench/reference/<workload>.json.  The recordings are the
benchmark's notion of a correct answer, so they are made once, from a
known-good commit, and are not re-recorded to make a run pass.
"""

import json
import sys

from run import OUT_DIR, load_program, run_pass


def main() -> int:
    cli = load_program()
    import workloads  # needs hlab on the path

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        seed = workloads.DEFAULT_SEED
        cmds = workloads.make_inputs(name, seed, OUT_DIR / f"{name}-{seed}")
        _, results = run_pass(cli, cmds)
        for argv, (code, _, err) in zip(cmds, results):
            if code != 0 or err:
                raise SystemExit(f"{name}: {argv[0]} failed: {err}")
        stdout = [r[1] for r in results]
        for argv, out in zip(cmds, stdout):
            problems = workloads.check(argv, seed + 1, out, out)
            if problems:
                raise SystemExit(f"{name}: anchors fail: {problems}")
        with open(workloads.REFERENCE_DIR / f"{name}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"seed": seed, "stdout": stdout}, fh, indent=1)
            fh.write("\n")
        print(f"{name}: recorded {len(stdout)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())

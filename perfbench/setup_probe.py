"""Set-up time of one workload, measured in a fresh interpreter.

Times from before `import hlab.cli` until the workload's inputs are
generated and loaded, and prints one JSON line {"setup_s", "import_s"}.

    python3 perfbench/setup_probe.py <workload> <seed> <input dir>
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hlab.cli  # noqa: E402,F401

t1 = time.perf_counter()

import json  # noqa: E402

import workloads  # noqa: E402

name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workloads.load_inputs(workloads.make_inputs(name, seed, out))
t2 = time.perf_counter()
print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0}))

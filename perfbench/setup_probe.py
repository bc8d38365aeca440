"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON object: ``import_s``, the time of ``import nsdq``, and
``setup_s``, the time from just before that import until the workload's
first operation has returned (cold rule construction and any lazy set-up
included).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (imports neither nsdq nor numpy)


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    inputs = workloads.make_inputs(workload, seed)
    t0 = time.perf_counter()
    import nsdq  # noqa: F401
    t1 = time.perf_counter()
    ops = workloads.build_ops(workload, inputs)
    ops[0].call()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Print the result of every benchmark operation, one line per op.

Usage: ``python3 tools/op_reprs.py [workload ...]`` (default: every
workload of ``perfbench/workloads.py``).  For seeds 1, 2 and 3 of each
named workload it builds the sweep's operations, runs each once and prints
``label<TAB>repr(result)``.  Run it in two checkouts and ``diff`` the
outputs: an empty diff says every op's value is the same bit for bit.

It imports ``perfbench/workloads.py`` as it is and the ``nsdq`` of the
checkout it lives in (``src/`` next to this directory), and needs nothing
beyond the standard library, numpy and nsdq.  No reference is computed.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    names = (sys.argv[1:] if argv is None else argv) or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload {', '.join(unknown)}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    for name in names:
        for seed in SEEDS:
            for op in workloads.build_ops(name, workloads.make_inputs(name, seed)):
                print(f"{op.label}\t{op.call()!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

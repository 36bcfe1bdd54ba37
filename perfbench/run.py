"""Benchmark entry point.

    python3 perfbench/run.py --workload replan-movers --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout: the program is imported from
`src/` of the checkout this file sits in, never from an installed copy.
Exits with code 2, printing no result, when that source tree is missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Same names as workloads.WORKLOADS, which imports numpy and so cannot be
# imported before the thread pools are pinned.
WORKLOADS = ("replan-movers", "mission-statics-tour")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads(environ) -> None:
    """One BLAS/OpenMP thread: the planner is single-threaded, and extra pool
    threads only add scheduling noise to the timings. Must run before numpy
    is imported."""
    for name in THREAD_VARS:
        environ[name] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "nurbsnav" / "__init__.py").is_file():
        print(f"error: no nurbsnav source tree under {src}", file=sys.stderr)
        return 2
    pin_threads(os.environ)
    sys.path.insert(0, str(src))
    import nurbsnav
    if Path(nurbsnav.__file__).resolve().parent != src / "nurbsnav":
        print(f"error: imported nurbsnav from {nurbsnav.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import bench
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                     ROOT)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the IMSR reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload exact-sa --seed 0 --seconds 30 --trace 0

Workloads: ``exact-sa``, ``throughput-sa``, ``stream-dr`` (see
``perfbench/workloads.py``).  The run repeats the workload, each time
from a fresh world, until ``--seconds`` have passed, checks the outputs
and prints one JSON object as its last line::

    {"correct": true, "attempted": ..., "failed": ...,
     "metrics": {"run_s": {"value": ..., "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics of the traced ones (``perfbench/layers.py``) plus the
tracing overhead.  The line before the result records the environment.

Exit status: 0 when every check holds, 1 when a check fails (the result
is still printed, with ``"correct": false``), 2 when the program under
test is missing.

One process does all the work, with one BLAS thread.  Checkpoints go to
``.perfbench-work/`` under the repository root, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKROOT = ROOT / ".perfbench-work"
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("exact-sa", "throughput-sa", "stream-dr")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    # before numpy is first imported, so OpenBLAS starts with one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from workloads import environment, measure

    WORKROOT.mkdir(exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), WORKROOT)
        env = environment(WORKROOT)
    finally:
        shutil.rmtree(WORKROOT, ignore_errors=True)
    for problem in result.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env, "workload": args.workload,
                      "seed": args.seed, "repeats": result.repeats,
                      "update_samples": result.samples}))
    print(json.dumps({
        "correct": not result.problems,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 1 if result.problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-gauss64 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a traced run.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; failed correctness checks are listed on standard error.
The program is imported from ``src/`` of the same checkout, so the
command fails (non-zero exit, no result) where that source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("build-sift128", "serve-gauss64", "churn-gauss64", "cluster-gauss64")
#: workloads that run on one CPU (see README: one CPU)
PINNED = ("serve-gauss64", "churn-gauss64")


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"benchmark: imported repro from {repro.__file__}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.workload in PINNED:
        # before any thread exists, so every thread the program and the
        # load generator start inherits it (see README: one CPU)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_program()
    from perfbench import workloads

    run = {
        "build-sift128": workloads.run_build,
        "serve-gauss64": workloads.run_serve,
        "churn-gauss64": workloads.run_churn,
        "cluster-gauss64": workloads.run_cluster,
    }[args.workload]
    out = run(args.seed, args.seconds, bool(args.trace))
    if args.trace:
        workloads.fill_absent_layers(out)
    for problem in out.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

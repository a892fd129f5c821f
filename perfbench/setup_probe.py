"""One cold set-up sample of the build workload, in a fresh interpreter.

Prints the seconds from before the program is imported to the end of
the small warm-up build that precedes the timed builds (input
generation excluded).  Started by ``workloads.setup_probe_seconds``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy  # noqa: F401 - the benchmark's own import, not timed

    t0 = time.perf_counter()
    from perfbench import workloads  # imports the program

    imported = time.perf_counter() - t0
    print(imported + workloads.warmup_build(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Time the package's cold start: `import whittak` and one whole CLI process.

Usage: PYTHONPATH=src python3 scripts/time_cold_start.py [--reps 20]

Each rep starts two fresh interpreters with this process's environment. The
first times `import whittak` inside itself; the second runs
`python3 -m whittak.cli build gl --m 1 --n 1` and is timed from outside, from
start to exit. The last stdout line is a JSON object of metric -> seconds (the
median of --reps, lower is better), the form `scripts/bench_pair.py --script`
reads. The package is imported from PYTHONPATH, so the same script times any
checkout's `src`; a valid `__pycache__` in that tree, or bytecode written by an
earlier rep when PYTHONDONTWRITEBYTECODE is unset, makes the imports cheaper.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

IMPORT = "import time; t = time.perf_counter(); import whittak; print(time.perf_counter() - t)"
BUILD = [sys.executable, "-m", "whittak.cli", "build", "gl", "--m", "1", "--n", "1"]


def import_s() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT], capture_output=True, text=True, check=True)
    return float(proc.stdout)


def build_s() -> float:
    t0 = time.perf_counter()
    subprocess.run(BUILD, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=20, help="fresh interpreters per metric")
    args = ap.parse_args()
    imports, builds = [], []
    for _ in range(args.reps):
        imports.append(import_s())
        builds.append(build_s())
    print(json.dumps({
        "cli_build_gl11_s": statistics.median(builds),
        "import_whittak_s": statistics.median(imports),
    }, sort_keys=True))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time the lift-identity check on the Fock modules of gl(2|1) and gl(2|2).

Usage: PYTHONPATH=src python3 scripts/time_lift_checks.py [--reps 5]

Runs `fockrep.verify_lift_identities` at degree <= 1 and level c = 1 on the
untwisted Fock module of gl(2|1) and of gl(2|2), the instances too large for
perfbench's `lift` workload. Each call gets a freshly built module, so its lift
tables are compiled inside the timed call; only the check itself is timed.
The last stdout line is a JSON object of metric -> median seconds over --reps
calls (lower is better), the form `scripts/bench_pair.py --script` reads. The
package is imported from PYTHONPATH, so the same script times any checkout's
`src`.
"""

import argparse
import json
import statistics
import time

from whittak.exactlin import ONE
from whittak.fockrep import build_fock, verify_lift_identities
from whittak.superalg import build_gl
from whittak.takiff import build_takiff


def median_check_time(m: int, n: int, reps: int) -> float:
    a, rd = build_gl(m, n)
    t, _ = build_takiff(a, rd)
    times = []
    for _ in range(reps):
        f = build_fock(t, ONE)
        t0 = time.perf_counter()
        rep = verify_lift_identities(f, 1)
        times.append(time.perf_counter() - t0)
        if not rep.passed:
            raise SystemExit(f"error: the gl({m}|{n}) lift check fails")
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=5, help="calls per metric")
    args = ap.parse_args()
    print(json.dumps({
        "gl21_deg1_s": median_check_time(2, 1, args.reps),
        "gl22_deg1_s": median_check_time(2, 2, args.reps),
    }, sort_keys=True))


if __name__ == "__main__":
    main()

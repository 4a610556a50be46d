#!/usr/bin/env python3
"""Time the lift-identity check on the Fock modules of gl(2|1), gl(2|2) and twisted gl(1|2).

Usage: PYTHONPATH=src python3 scripts/time_lift_checks.py [--reps 5]

Runs `fockrep.verify_lift_identities` at degree <= 1 and level c = 1 on the
untwisted Fock module of gl(2|1) and of gl(2|2), and on the principal gl(1|2)
module twisted by eta from the principal character chi (972 identities). These
are the instances too large for perfbench's `lift` workload, which keeps the
twisted module only at degree 0; at degree 1 the barred coordinates and the twist
terms weigh more. Each call gets a freshly built module, so its lift tables are
compiled inside the timed call; only the check itself is timed. The last stdout
line is a JSON object of metric -> median seconds over --reps calls (lower is
better), the form `scripts/bench_pair.py --script` reads. The package is imported
from PYTHONPATH, so the same script times any checkout's `src`.
"""

import argparse
import json
import statistics
import time

from whittak.exactlin import ONE, Scalar, SparseVector
from whittak.fockrep import build_fock, verify_lift_identities
from whittak.superalg import build_gl
from whittak.takiff import build_takiff
from whittak.wfinite import eta_for_fock, graded_nilradical, nilchar_from_e


def principal_eta(t):
    """eta from the principal character of gl(1|2): e = E_21 + E_32, graded by h = E_33 - E_11."""
    lab = t.base.labels.index
    e = SparseVector({lab("E_21"): ONE, lab("E_32"): ONE})
    g = graded_nilradical(t, SparseVector({lab("E_11"): Scalar(-1), lab("E_33"): ONE}))
    return eta_for_fock(t, nilchar_from_e(t, g, e))


def median_check_time(m: int, n: int, reps: int, twisted: bool = False) -> float:
    a, rd = build_gl(m, n)
    t, _ = build_takiff(a, rd)
    eta = principal_eta(t) if twisted else None
    times = []
    for _ in range(reps):
        f = build_fock(t, ONE, eta)
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
        "gl12_twisted_deg1_s": median_check_time(1, 2, args.reps, twisted=True),
    }, sort_keys=True))


if __name__ == "__main__":
    main()

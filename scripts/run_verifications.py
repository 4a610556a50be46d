#!/usr/bin/env python3
"""Run the full verification battery over the standard algebras and print a table.

Usage: python3 scripts/run_verifications.py [--max-size 3] [--deg 2] [--c 1]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from whittak.exactlin import Scalar
from whittak.fockrep import build_fock, verify_highest_weight, verify_lift_identities
from whittak.superalg import build_gl, verify_algebra, verify_root_datum
from whittak.takiff import build_takiff, verify_hat_closure, verify_takiff


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-size", type=int, default=3, help="max m+n")
    ap.add_argument("--deg", type=int, default=2, help="degree bound for lift checks")
    ap.add_argument("--c", default="1", help="level for the module checks")
    args = ap.parse_args()
    c = Scalar.parse(args.c)

    rows = []
    for total in range(1, args.max_size + 1):
        for m in range(total + 1):
            n = total - m
            t0 = time.monotonic()
            a, rd = build_gl(m, n)
            checks = {
                "algebra": verify_algebra(a).passed,
                "roots": verify_root_datum(a, rd).passed,
            }
            t, hat = build_takiff(a, rd)
            checks["extension"] = verify_takiff(t).passed
            checks["triangular"] = verify_hat_closure(t, hat).passed
            f = build_fock(t, c)
            checks["lift"] = verify_lift_identities(f, min(args.deg, 2)).passed
            checks["vacuum"] = verify_highest_weight(f).passed
            dt = time.monotonic() - t0
            rows.append((a.name, checks, dt))

    names = ["algebra", "roots", "extension", "triangular", "lift", "vacuum"]
    print(f"{'algebra':10s} " + " ".join(f"{n:>10s}" for n in names) + "    time")
    ok = True
    for name, checks, dt in rows:
        ok &= all(checks.values())
        line = f"{name:10s} " + " ".join(
            f"{'pass' if checks[n] else 'FAIL':>10s}" for n in names
        )
        print(line + f"  {dt:6.2f}s")
    print("all checks passed" if ok else "FAILURES present")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

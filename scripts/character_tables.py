#!/usr/bin/env python3
"""Print character tables up to height --trunc and check the factorization identity, at every
height, for one algebra.

Usage: python3 scripts/character_tables.py --m 2 --n 1 --c 2 --trunc 4
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from whittak.charfun import fock_character, verify_factorization, verma_character
from whittak.exactlin import Scalar
from whittak.superalg import build_gl, weyl_vector
from whittak.takiff import build_takiff


def show(title, ch):
    print(f"-- {title} (anchor {[str(v) for v in ch.anchor.values]}, level {ch.anchor.level})")
    for offset, mult in ch.terms():
        print("   e^(anchor - " + " - ".join(f"{k}*a{i + 1}" for i, k in enumerate(offset) if k) + f"): {mult}"
              if any(offset) else f"   e^anchor: {mult}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--c", default="1")
    ap.add_argument("--trunc", type=int, default=4)
    args = ap.parse_args()

    c = Scalar.parse(args.c)
    a, rd = build_gl(args.m, args.n)
    t, _ = build_takiff(a, rd)
    lam = weyl_vector(rd, c)

    show("Fock character", fock_character(rd, c, args.trunc))
    show("extended Verma at the shifted weight", verma_character(rd, lam, args.trunc, hatted=True))
    rep = verify_factorization(t, c, lam)
    print(rep.summary())
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())

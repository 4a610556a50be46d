"""Truncated formal character arithmetic and character identities.

Characters are stored relative to an anchor weight: coefficients are keyed
by nonnegative integer offsets over the simple roots, kept up to a height
truncation (height = sum of the offset entries). Every module character is
one product over the module's generators (`_free_character`).
"""

from __future__ import annotations

from typing import NamedTuple

from .exactlin import Scalar
from .fockrep import clifford_module_dim
from .reports import Report
from .superalg import RootDatum, Weight, weyl_vector
from .takiff import TakiffAlgebra


class FormalCharacter(NamedTuple):
    anchor: Weight
    truncation: int
    nsimple: int
    coeffs: dict[tuple[int, ...], int]

    def coefficient(self, offset: tuple[int, ...]) -> int:
        return self.coeffs.get(offset, 0)

    def terms(self):
        return sorted(self.coeffs.items())

    def truncated(self, new_trunc: int) -> "FormalCharacter":
        if new_trunc >= self.truncation:
            return FormalCharacter(self.anchor, self.truncation, self.nsimple, dict(self.coeffs))
        kept = {o: m for o, m in self.coeffs.items() if sum(o) <= new_trunc}
        return FormalCharacter(self.anchor, new_trunc, self.nsimple, kept)


def char_product(a: FormalCharacter, b: FormalCharacter) -> FormalCharacter:
    if a.nsimple != b.nsimple or len(a.anchor.values) != len(b.anchor.values):
        raise ValueError("characters live over different Cartan data")
    trunc = min(a.truncation, b.truncation)
    out: dict[tuple[int, ...], int] = {}
    for oa, ma in a.coeffs.items():
        ha = sum(oa)
        if ha > trunc:
            continue
        for ob, mb in b.coeffs.items():
            if ha + sum(ob) > trunc:
                continue
            key = tuple(x + y for x, y in zip(oa, ob))
            out[key] = out.get(key, 0) + ma * mb
    out = {k: v for k, v in out.items() if v}
    return FormalCharacter(a.anchor + b.anchor, trunc, a.nsimple, out)


def char_difference(a: FormalCharacter, b: FormalCharacter) -> str | None:
    """Exact comparison up to the common truncation: the first difference, or None if equal."""
    if a.anchor != b.anchor:
        return f"anchors differ: {_weight_str(a.anchor)} vs {_weight_str(b.anchor)}"
    trunc = min(a.truncation, b.truncation)
    keys = {o for o in a.coeffs if sum(o) <= trunc} | {o for o in b.coeffs if sum(o) <= trunc}
    for o in sorted(keys):
        if a.coefficient(o) != b.coefficient(o):
            return f"offset {o}: {a.coefficient(o)} != {b.coefficient(o)}"
    return None


def _weight_str(w: Weight) -> str:
    return "(" + ", ".join(str(v) for v in w.values) + f"; {w.level})"


def _positive_root_offsets(rd: RootDatum) -> list[tuple[tuple[int, ...], int]]:
    """(simple-root offset, parity) per positive root; raises if unspanned."""
    out = []
    for r in rd.positive_roots():
        coords = rd.simple_coordinates(r)
        if coords is None:
            raise ValueError(f"positive root {r.covector} is not a simple combination")
        out.append((coords, r.parity))
    return out


def _free_character(anchor: Weight, trunc: int, nsimple: int, factors: list, dim: int) -> FormalCharacter:
    """dim e^anchor times (1+x)^odd / (1-x)^even for each (offset, even, odd) in factors, x = e^(-offset):
    dim times the character of the free supercommutative algebra on `even` even and `odd` odd
    generators (0 or 1 each) per offset. A factor's x^k coefficient is 1 at k = 0, even + odd at
    k = 1 and even (1 + odd) beyond."""
    coeffs = {(0,) * nsimple: dim}
    for offset, even, odd in factors:
        h = sum(offset)
        if h <= 0:
            raise ValueError("character series need a positive-height offset")
        out: dict[tuple[int, ...], int] = {}
        for o, m in coeffs.items():
            for k in range(1 + (trunc - sum(o)) // h):
                c = 1 if k == 0 else even + odd if k == 1 else even * (1 + odd)
                if not c:
                    break
                key = tuple(x + k * y for x, y in zip(o, offset))
                out[key] = out.get(key, 0) + m * c
        coeffs = out
    return FormalCharacter(anchor, trunc, nsimple, coeffs)


def verma_character(rd: RootDatum, lam: Weight, trunc: int, hatted: bool = True) -> FormalCharacter:
    """Character of the induced highest-weight module.

    The extended algebra's n- + n-theta gives every positive root an even and
    an odd generator, (1+x)/(1-x), times the Clifford-factor dimension; the
    plain n- gives one generator of the root's parity.
    """
    factors = [(offset, 1, 1) if hatted else (offset, 1 - p, p) for offset, p in _positive_root_offsets(rd)]
    dim = clifford_module_dim(len(rd.cartan), bool(lam.level)) if hatted else 1
    return _free_character(lam, trunc, len(rd.simple), factors, dim)


def fock_character(rd: RootDatum, c: Scalar, trunc: int) -> FormalCharacter:
    """Character of the Fock module at level c: the simple-character factor.

    The barred n-theta gives every positive root one generator of the opposite
    parity: 2^floor((l+1)/2) e^(shifted weight) prod_even (1+x) prod_odd 1/(1-x).
    """
    factors = [(offset, p, 1 - p) for offset, p in _positive_root_offsets(rd)]
    dim = clifford_module_dim(len(rd.cartan), True)
    return _free_character(weyl_vector(rd, c), trunc, len(rd.simple), factors, dim)


def verify_factorization(t: TakiffAlgebra, c: Scalar, lam: Weight, trunc: int) -> Report:
    """Extended Verma character equals the Fock character times the plain Verma character."""
    rep = Report(f"character factorization: {t.base.name}, c = {c}, height <= {trunc}")
    if lam.level != c:
        raise ValueError("the weight's level must match the level c")
    lhs = verma_character(t.rd, lam, trunc, hatted=True)
    shifted = (lam - weyl_vector(t.rd)).restrict()
    rhs = char_product(fock_character(t.rd, c, trunc), verma_character(t.rd, shifted, trunc, hatted=False))
    rep.add("coefficientwise equality", char_difference(lhs, rhs))
    rep.data["truncation"] = trunc
    return rep

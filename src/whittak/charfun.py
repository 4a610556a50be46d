"""Truncated formal characters and the character factorization.

Characters are stored relative to an anchor weight: coefficients are keyed
by nonnegative integer offsets over the simple roots, kept up to a height
truncation (height = sum of the offset entries). Every module character is
one product over the module's generators (`_free_character`), which its
anchor, its dimension and one exponent map fix at every height (`_difference`).
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


def _weight_str(w: Weight) -> str:
    return "(" + ", ".join(str(v) for v in w.values) + f"; {w.level})"


def _positive_root_offsets(rd: RootDatum) -> list[tuple[tuple[int, ...], int]]:
    """(simple-root offset, parity) per positive root; raises if unspanned."""
    return [(o, r.parity) for o, r in zip(rd.positive_offsets(), rd.positive_roots())]


def _free_character(anchor: Weight, dim: int, factors: list, trunc: int, nsimple: int) -> FormalCharacter:
    """dim e^anchor times (1+x)^odd / (1-x)^even for each (offset, even, odd) in factors, x = e^(-offset):
    dim times the character of the free supercommutative algebra on `even` even and `odd` odd
    generators (0 or 1 each) per offset. A factor's x^k coefficient is 1 at k = 0, even + odd at
    k = 1 and even (1 + odd) beyond. An offset is kept as one int whose digits in radix trunc + 1
    are its entries and, on top, its height; no kept digit exceeds trunc, so a step is one add."""
    radix = max(trunc, 0) + 1
    powers = [radix**i for i in range(nsimple)]
    top = radix**nsimple
    coeffs = {0: dim}
    for offset, even, odd in factors:
        h = sum(offset)
        if h <= 0:
            raise ValueError("character series need a positive-height offset")
        step = sum(x * p for x, p in zip(offset, powers)) + h * top
        out: dict[int, int] = {}
        for key, m in coeffs.items():
            for k in range(1 + (trunc - key // top) // h):
                c = 1 if k == 0 else even + odd if k == 1 else even * (1 + odd)
                if not c:
                    break
                out[key] = out.get(key, 0) + m * c
                key += step
        coeffs = out
    coeffs = {tuple([key // p % radix for p in powers]): m for key, m in coeffs.items()}
    return FormalCharacter(anchor, trunc, nsimple, coeffs)


def _verma(rd: RootDatum, offsets: list, lam: Weight, hatted: bool) -> tuple[Weight, int, list]:
    """(anchor, dimension, factors) of the induced highest-weight module's character. The extended
    algebra's n- + n-theta gives every positive root an even and an odd generator, (1+x)/(1-x),
    times the Clifford-factor dimension; the plain n- gives one generator of the root's parity."""
    if hatted:
        return lam, clifford_module_dim(len(rd.cartan), bool(lam.level)), [(o, 1, 1) for o, _ in offsets]
    return lam, 1, [(o, 1 - p, p) for o, p in offsets]


def _fock(rd: RootDatum, offsets: list, c: Scalar) -> tuple[Weight, int, list]:
    """(anchor, dimension, factors) of the Fock module's character at level c: the barred n-theta gives
    every positive root one generator of the opposite parity, 2^floor((l+1)/2) e^rho prod_even (1+x)
    prod_odd 1/(1-x)."""
    return weyl_vector(rd, c), clifford_module_dim(len(rd.cartan), True), [(o, p, 1 - p) for o, p in offsets]


def verma_character(rd: RootDatum, lam: Weight, trunc: int, hatted: bool = True) -> FormalCharacter:
    """Character of the induced highest-weight module, up to height trunc (see `_verma`)."""
    return _free_character(*_verma(rd, _positive_root_offsets(rd), lam, hatted), trunc, len(rd.simple))


def fock_character(rd: RootDatum, c: Scalar, trunc: int) -> FormalCharacter:
    """The Fock module's character at level c, up to height trunc: the simple-character factor (`_fock`)."""
    return _free_character(*_fock(rd, _positive_root_offsets(rd), c), trunc, len(rd.simple))


def _exponents(factors: list) -> dict[tuple[int, ...], int]:
    """The map v -> e_v with prod over factors of (1+x^o)^odd / (1-x^o)^even = prod_v (1-x^v)^e_v.
    Since 1+x^o = (1-x^2o)/(1-x^o), a factor adds -(even + odd) at o and odd at 2o."""
    e: dict[tuple[int, ...], int] = {}
    for o, even, odd in factors:
        e[o] = e.get(o, 0) - even - odd
        if odd:
            o2 = tuple(2 * x for x in o)
            e[o2] = e.get(o2, 0) + odd
    return {v: k for v, k in e.items() if k}


def _difference(a: tuple[Weight, int, list], b: tuple[Weight, int, list]) -> str | None:
    """The first difference of two characters given as (anchor, dimension, factors), or None. Each is
    dim e^anchor prod_v (1-x^v)^e_v for one exponent map e (`_exponents`); the series and the map fix
    each other, height by height, so equal anchors, dimensions and maps are equal at every height."""
    (anchor_a, dim_a, factors_a), (anchor_b, dim_b, factors_b) = a, b
    if anchor_a != anchor_b:
        return f"anchors differ: {_weight_str(anchor_a)} vs {_weight_str(anchor_b)}"
    if dim_a != dim_b:
        return f"Clifford dimensions differ: {dim_a} vs {dim_b}"
    ea, eb = _exponents(factors_a), _exponents(factors_b)
    for v in sorted(ea.keys() | eb.keys()):
        if ea.get(v, 0) != eb.get(v, 0):
            return f"offset {v}: exponent {ea.get(v, 0)} != {eb.get(v, 0)}"
    return None


def verify_factorization(t: TakiffAlgebra, c: Scalar, lam: Weight) -> Report:
    """Extended Verma character equals the Fock character times the plain Verma character, at every
    height: the two sides' anchors, dimensions and exponent maps agree."""
    rep = Report(f"character factorization: {t.base.name}, c = {c}, every height")
    if lam.level != c:
        raise ValueError("the weight's level must match the level c")
    offsets = _positive_root_offsets(t.rd)
    shifted = (lam - weyl_vector(t.rd)).restrict()
    (fa, fd, ff), (va, vd, vf) = _fock(t.rd, offsets, c), _verma(t.rd, offsets, shifted, False)
    rhs = (fa + va, fd * vd, ff + vf)
    rep.add("coefficientwise equality", _difference(_verma(t.rd, offsets, lam, True), rhs))
    return rep

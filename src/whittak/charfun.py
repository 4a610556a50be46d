"""Truncated formal character arithmetic and character identities.

Characters are stored relative to an anchor weight: coefficients are keyed
by nonnegative integer offsets over the simple roots, kept up to a height
truncation (height = sum of the offset entries).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactlin import Scalar
from .fockrep import FockModule, clifford_module_dim
from .reports import Report
from .superalg import EVEN, ODD, RootDatum, Weight, weyl_vector


@dataclass
class FormalCharacter:
    anchor: Weight
    truncation: int
    nsimple: int
    coeffs: dict[tuple[int, ...], int] = field(default_factory=dict)

    def coefficient(self, offset: tuple[int, ...]) -> int:
        return self.coeffs.get(offset, 0)

    def terms(self):
        return sorted(self.coeffs.items())

    def truncated(self, new_trunc: int) -> "FormalCharacter":
        if new_trunc >= self.truncation:
            return FormalCharacter(self.anchor, self.truncation, self.nsimple, dict(self.coeffs))
        kept = {o: m for o, m in self.coeffs.items() if sum(o) <= new_trunc}
        return FormalCharacter(self.anchor, new_trunc, self.nsimple, kept)

    def scaled(self, k: int) -> "FormalCharacter":
        return FormalCharacter(
            self.anchor, self.truncation, self.nsimple, {o: k * m for o, m in self.coeffs.items() if k * m}
        )


def unit_character(anchor: Weight, trunc: int, nsimple: int) -> FormalCharacter:
    return FormalCharacter(anchor, trunc, nsimple, {(0,) * nsimple: 1})


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


def char_equal(a: FormalCharacter, b: FormalCharacter) -> tuple[bool, str | None]:
    """Exact comparison up to the common truncation; returns a witness offset."""
    if a.anchor != b.anchor:
        return False, f"anchors differ: {_weight_str(a.anchor)} vs {_weight_str(b.anchor)}"
    trunc = min(a.truncation, b.truncation)
    keys = {o for o in a.coeffs if sum(o) <= trunc} | {o for o in b.coeffs if sum(o) <= trunc}
    for o in sorted(keys):
        if a.coefficient(o) != b.coefficient(o):
            return False, f"offset {o}: {a.coefficient(o)} != {b.coefficient(o)}"
    return True, None


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


def _multiply_series(
    ch: FormalCharacter, offset: tuple[int, ...], coeff_at: list[int] | None, geometric_tail: int | None
) -> FormalCharacter:
    """Multiply by sum_k c_k x^(k*offset), exact up to the truncation.

    coeff_at lists the first coefficients; geometric_tail, when set, continues
    the series with that constant forever.
    """
    h = sum(offset)
    if h <= 0:
        raise ValueError("character series need a positive-height offset")
    out: dict[tuple[int, ...], int] = {}
    for o, m in ch.coeffs.items():
        base_h = sum(o)
        k = 0
        while base_h + k * h <= ch.truncation:
            if coeff_at is not None and k < len(coeff_at):
                c = coeff_at[k]
            elif geometric_tail is not None:
                c = geometric_tail
            else:
                break
            if c:
                key = tuple(x + k * y for x, y in zip(o, offset))
                out[key] = out.get(key, 0) + m * c
            k += 1
    out = {k2: v for k2, v in out.items() if v}
    return FormalCharacter(ch.anchor, ch.truncation, ch.nsimple, out)


def verma_character(rd: RootDatum, lam: Weight, trunc: int, hatted: bool = True) -> FormalCharacter:
    """Character of the induced highest-weight module.

    For the extended algebra every positive root contributes the pair of an
    even and an odd generator, (1+x)/(1-x); the plain version contributes a
    geometric series for even roots and (1+x) for odd ones. The extended
    character also carries the Clifford-factor dimension.
    """
    offsets = _positive_root_offsets(rd)
    ch = unit_character(lam, trunc, len(rd.simple))
    for offset, parity in offsets:
        if hatted:
            ch = _multiply_series(ch, offset, [1], 2)
        elif parity == EVEN:
            ch = _multiply_series(ch, offset, None, 1)
        else:
            ch = _multiply_series(ch, offset, [1, 1], None)
    if hatted:
        ch = ch.scaled(clifford_module_dim(len(rd.cartan), bool(lam.level)))
    return ch


def fock_character(f: FockModule, trunc: int) -> FormalCharacter:
    """Exact census of the module basis by weight, up to the height truncation."""
    if f.twisted:
        raise ValueError("twisted modules are not weight modules")
    rd = f.rd
    offsets = _positive_root_offsets(rd)
    nsimple = len(rd.simple)
    poly_offsets = [offsets[i][0] for i in f.poly_slots]
    grass_offsets = [offsets[i][0] for i in f.grass_slots]
    cliff_factor = 2 ** f.n_cliff
    anchor = weyl_vector(rd, f.c)

    coeffs: dict[tuple[int, ...], int] = {}

    def walk_poly(slot: int, acc: tuple[int, ...], height: int):
        if slot == len(poly_offsets):
            walk_grass(0, acc, height)
            return
        off = poly_offsets[slot]
        h = sum(off)
        k = 0
        while height + k * h <= trunc:
            walk_poly(slot + 1, tuple(a + k * b for a, b in zip(acc, off)), height + k * h)
            k += 1

    def walk_grass(slot: int, acc: tuple[int, ...], height: int):
        if slot == len(grass_offsets):
            coeffs[acc] = coeffs.get(acc, 0) + cliff_factor
            return
        walk_grass(slot + 1, acc, height)
        off = grass_offsets[slot]
        h = sum(off)
        if height + h <= trunc:
            walk_grass(slot + 1, tuple(a + b for a, b in zip(acc, off)), height + h)

    walk_poly(0, (0,) * nsimple, 0)
    return FormalCharacter(anchor, trunc, nsimple, coeffs)


def fock_prefactor_character(rd: RootDatum, c: Scalar, trunc: int) -> FormalCharacter:
    """Closed-form product matching the Fock census: the simple-character factor.

    2^floor((l+1)/2) e^(shifted weight) prod_even (1+x) prod_odd 1/(1-x).
    """
    offsets = _positive_root_offsets(rd)
    ch = unit_character(weyl_vector(rd, c), trunc, len(rd.simple))
    for offset, parity in offsets:
        if parity == ODD:
            ch = _multiply_series(ch, offset, None, 1)
        else:
            ch = _multiply_series(ch, offset, [1, 1], None)
    return ch.scaled(clifford_module_dim(len(rd.cartan), True))


def verify_factorization(f: FockModule, lam: Weight, trunc: int) -> Report:
    """Extended Verma character equals Fock census times the plain Verma character."""
    rep = Report(f"character factorization: {f.base.name}, c = {f.c}, height <= {trunc}")
    if lam.level != f.c:
        raise ValueError("the weight's level must match the module's level")
    lhs = verma_character(f.rd, lam, trunc, hatted=True)
    shifted = (lam - weyl_vector(f.rd)).restrict()
    rhs = char_product(fock_character(f, trunc), verma_character(f.rd, shifted, trunc, hatted=False))
    same, witness = char_equal(lhs, rhs)
    rep.add("coefficientwise equality", same, witness)
    rep.data["truncation"] = trunc
    return rep


def verify_simple_character_factorization(
    rd: RootDatum,
    c: Scalar,
    ch_ls: FormalCharacter,
    lam: Weight,
    trunc: int,
    ch_l: FormalCharacter | None = None,
) -> Report:
    """Simple-character identity: emit the right side, compare when given.

    The right side is the Clifford-dimension prefactor times the supplied
    restricted simple character; its anchor must come out at lam.
    """
    rep = Report("simple character identity")
    rhs = char_product(fock_prefactor_character(rd, c, trunc), ch_ls.truncated(trunc))
    rep.data["rhs"] = {
        "anchor": [str(v) for v in rhs.anchor.values] + [str(rhs.anchor.level)],
        "terms": [{"offset": list(o), "mult": m} for o, m in rhs.terms()],
        "truncation": rhs.truncation,
    }
    rep.add(
        "right side anchored at the requested weight",
        rhs.anchor == lam,
        None if rhs.anchor == lam else f"anchor {_weight_str(rhs.anchor)} != {_weight_str(lam)}",
    )
    if ch_l is not None:
        same, witness = char_equal(rhs, ch_l)
        rep.add("matches the supplied character", same, witness)
    return rep

"""Earlier engines of the package, kept as references for differential tests.

`ReferenceFock` is the five-branch letter engine that `FockModule` used before
its slots became one letter rule: one hand-written branch per slot kind, the
Koszul sign counted separately over the grass and the Clifford letters, and a
fresh vector for every slot. `whittaker_kernel` solves one truncation of the
Whittaker system from scratch.
"""

from __future__ import annotations

from whittak.exactlin import (
    ONE,
    ZERO,
    Scalar,
    SparseMatrix,
    SparseVector,
    add_term,
    invert,
    kernel_basis,
    sign,
)
from whittak.fockrep import FockIndex, FockModule, ModuleVector
from whittak.wfinite import NilCharacter, _generating_subset


class ReferenceFock:
    """Barred action of a FockModule, computed slot kind by slot kind."""

    def __init__(self, f: FockModule):
        self.f = f
        npos = len(f.positives)
        self.slots = (
            [("E", i) for i in range(npos)]
            + [("F", i) for i in range(npos)]
            + [("a", k) for k in range(f.n_pairs)]
            + [("b", k) for k in range(f.n_pairs)]
            + ([("w", 0)] if f.has_w else [])
        )
        cols = (
            [f.dual.E[i] for i in range(npos)]
            + [f.dual.F[i] for i in range(npos)]
            + f.a_vecs
            + f.b_vecs
            + ([f.w_vec] if f.has_w else [])
        )
        self.inv_cols = invert(SparseMatrix.from_columns(cols, f.base.dim))
        self.poly_of = {p: k for k, p in enumerate(f.poly_slots)}
        self.grass_of = {p: k for k, p in enumerate(f.grass_slots)}
        self.half_c = f.c / Scalar(2)
        self.two_c = Scalar(2) * f.c

    @staticmethod
    def _odd_before_grass(idx: FockIndex, gi: int) -> int:
        return sum(idx.grass[:gi])

    @staticmethod
    def _odd_before_cliff(idx: FockIndex, ci: int) -> int:
        return sum(idx.grass) + sum(idx.cliff[:ci])

    def apply_slot(self, slot: tuple, v: ModuleVector) -> ModuleVector:
        f = self.f
        kind, k = slot
        out: dict[FockIndex, Scalar] = {}
        c = f.c
        for idx, coeff in v.items():
            if kind == "F":
                if k in self.poly_of:
                    pi = self.poly_of[k]
                    poly = list(idx.poly)
                    poly[pi] += 1
                    add_term(out, FockIndex(tuple(poly), idx.grass, idx.cliff), coeff)
                else:
                    gi = self.grass_of[k]
                    if idx.grass[gi]:
                        continue
                    s = sign(self._odd_before_grass(idx, gi))
                    grass = list(idx.grass)
                    grass[gi] = 1
                    add_term(out, FockIndex(idx.poly, tuple(grass), idx.cliff), coeff * s)
            elif kind == "E":
                beta = sign(f.positives[k].parity)
                if k in self.poly_of:
                    pi = self.poly_of[k]
                    m = idx.poly[pi]
                    if not m:
                        continue
                    poly = list(idx.poly)
                    poly[pi] -= 1
                    add_term(
                        out,
                        FockIndex(tuple(poly), idx.grass, idx.cliff),
                        coeff * c * beta * Scalar(m),
                    )
                else:
                    gi = self.grass_of[k]
                    if not idx.grass[gi]:
                        continue
                    s = sign(self._odd_before_grass(idx, gi))
                    grass = list(idx.grass)
                    grass[gi] = 0
                    add_term(out, FockIndex(idx.poly, tuple(grass), idx.cliff), coeff * c * beta * s)
            elif kind == "b":
                if idx.cliff[k]:
                    continue
                s = sign(self._odd_before_cliff(idx, k))
                cliff = list(idx.cliff)
                cliff[k] = 1
                add_term(out, FockIndex(idx.poly, idx.grass, tuple(cliff)), coeff * s)
            elif kind == "a":
                if not idx.cliff[k]:
                    continue
                s = sign(self._odd_before_cliff(idx, k))
                cliff = list(idx.cliff)
                cliff[k] = 0
                add_term(out, FockIndex(idx.poly, idx.grass, tuple(cliff)), coeff * self.two_c * s)
            else:  # w, the unpaired Clifford letter: w . w = c/2
                wi = f.n_cliff - 1
                s = sign(self._odd_before_cliff(idx, wi))
                cliff = list(idx.cliff)
                if idx.cliff[wi]:
                    cliff[wi] = 0
                    add_term(out, FockIndex(idx.poly, idx.grass, tuple(cliff)), coeff * self.half_c * s)
                else:
                    cliff[wi] = 1
                    add_term(out, FockIndex(idx.poly, idx.grass, tuple(cliff)), coeff * s)
        return ModuleVector(out)

    def apply_barred(self, x: SparseVector, v: ModuleVector) -> ModuleVector:
        """Action of x (x) theta for any x in the base algebra."""
        if not v or not x:
            return ModuleVector()
        acc: dict[int, Scalar] = {}
        for j, s in x.items():
            for t, w in self.inv_cols[j].items():
                add_term(acc, t, s * w)
        out = ModuleVector()
        twist = ZERO
        for t, coeff in sorted(acc.items()):
            out = out + self.apply_slot(self.slots[t], v).scale(coeff)
            kind, k = self.slots[t]
            if kind == "E":
                e = self.f.eta[k]
                if e:
                    twist = twist + coeff * e
        if twist:
            out = out + v.scale(twist)
        return out


def whittaker_kernel(module, phi: NilCharacter, bound: int) -> list[ModuleVector]:
    """Kernel of the shifted action on the keys of degree <= bound, solved alone."""
    keys = module.basis_keys(bound)
    gens = _generating_subset(phi.algebra, phi.domain)
    row_ids: dict = {}
    entries: dict[tuple[int, int], Scalar] = {}
    for x in gens:
        val = phi.value(x)
        for col, k in enumerate(keys):
            img = module.apply_total_index(x, ModuleVector({k: ONE}))
            if val:
                img = img - ModuleVector({k: val})
            for rk, s in img.items():
                row = row_ids.setdefault((x, rk), len(row_ids))
                entries[(row, col)] = s
    mat = SparseMatrix(max(len(row_ids), 1), len(keys), entries)
    return [ModuleVector({keys[i]: s for i, s in v.items()}) for v in kernel_basis(mat)]

"""Module constructions and readers that only the tests use.

`FinDimModule`, `natural_module` and `TensorModule` build L (x) Fock for a
finite-dimensional module L of the base algebra given by action matrices, and
`cyclicity_spot_check` probes such a tensor module with seeded random vectors.
`borel_root_datum` gives gl(m|n) the positive system of another Borel, one
per order of its rows. `char_product` multiplies two truncated characters and
`char_difference` names their first differing coefficient, as the package did
before its factorization check compared exponent maps;
`verify_simple_character_factorization` emits the right side of the
simple-character identity with them. `mul_vec` is the product of a sparse
matrix with a sparse vector. `nilchar_to_dict`, `character_from_dict` and
`module_vector_from_dict` read back what the package's writers emit, so the
tests can round-trip its JSON formats; the package itself only writes the
character and module-vector formats.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from whittak.charfun import FormalCharacter, _weight_str, fock_character
from whittak.exactlin import I, ONE, EchelonSpan, Scalar, SparseMatrix, SparseVector, add_term, sign
from whittak.fockrep import FockModule, ModuleVector
from whittak.reports import Report
from whittak.serialize import weight_from_dict
from whittak.superalg import RootDatum, SuperAlgebra, Weight, build_gl, gl_parity_sequence
from whittak.wfinite import NilCharacter


def borel_root_datum(m: int, n: int, order) -> tuple[SuperAlgebra, RootDatum]:
    """gl(m|n) as `build_gl` gives it, with the root datum of the Borel of a row order: the positive
    roots are the E_ab with row a before row b in `order`, in `build_gl`'s root order, and the simple
    roots are those of consecutive rows, in the order's sequence. Each such Borel contains the same
    Cartan; the identity order gives `build_gl`'s own datum."""
    a, rd = build_gl(m, n)
    place = {row: k for k, row in enumerate(order)}
    rows = [divmod(r.space[0], m + n) for r in rd.roots]  # (a, b) of the root of E_ab
    positive = [k for k, (i, j) in enumerate(rows) if place[i] < place[j]]
    simple = sorted((place[i], k) for k, (i, j) in enumerate(rows) if place[j] == place[i] + 1)
    return a, rd._replace(positive=tuple(positive), simple=tuple(k for _, k in simple))


def mul_vec(m: SparseMatrix, v: SparseVector) -> SparseVector:
    """The product m . v."""
    cols = {}
    for (r, c), s in m.entries.items():
        cols.setdefault(c, []).append((r, s))
    out: dict[int, Scalar] = {}
    for c, coeff in v.items():
        for r, s in cols.get(c, ()):
            add_term(out, r, s * coeff)
    return SparseVector(out)


class FinDimModule(NamedTuple):
    """Finite-dimensional module of the base algebra by action matrices."""

    algebra: SuperAlgebra
    dim: int
    parity: tuple[int, ...]
    actions: list[SparseMatrix]

    def check_relations(self) -> Report:
        rep = Report("finite-dimensional module relations")
        a = self.algebra

        def failures():
            for i in range(a.dim):
                for j in range(a.dim):
                    lhs = _mat_comm(self.actions[i], self.actions[j], sign(a.parity[i] * a.parity[j]))
                    want: dict[tuple[int, int], Scalar] = {}
                    for k, s in a.bracket_basis(i, j).items():
                        for rc, v in self.actions[k].entries.items():
                            add_term(want, rc, s * v)
                    if lhs.entries != want:
                        yield f"bracket relation fails at ({a.labels[i]},{a.labels[j]})"

        rep.first_failure("action matrices satisfy the brackets", failures())
        return rep


def _mat_comm(x: SparseMatrix, y: SparseMatrix, koszul: Scalar) -> SparseMatrix:
    """xy - koszul * yx, joining each left entry only with the right entries of its row."""
    out: dict[tuple[int, int], Scalar] = {}
    x_rows, y_rows = x.row_dicts(), y.row_dicts()
    for (r, k), s in x.entries.items():
        for c, t in y_rows[k].items():
            add_term(out, (r, c), s * t)
    neg = -koszul
    for (r, k), s in y.entries.items():
        for c, t in x_rows[k].items():
            add_term(out, (r, c), neg * s * t)
    return SparseMatrix(x.rows, y.cols, out)


def natural_module(a: SuperAlgebra, m: int, n: int) -> FinDimModule:
    """Column action of gl(m|n) matrix units on the natural superspace."""
    d = m + n
    rowp = gl_parity_sequence(m, n)
    actions = []
    for i in range(a.dim):
        r, c = divmod(i, d)
        actions.append(SparseMatrix(d, d, {(r, c): ONE}))
    return FinDimModule(a, d, tuple(rowp), actions)


class TensorModule:
    """L (x) Fock with the barred part acting on the Fock factor only."""

    def __init__(self, L: FinDimModule, f: FockModule):
        rep = L.check_relations()
        if not rep.passed:
            raise ValueError(rep.failures()[0].witness)
        self.L = L
        self.f = f
        self.takiff = f.takiff
        self.c = f.c

    def vacuum_line(self) -> list[ModuleVector]:
        vac = next(iter(self.f.vacuum().terms))
        return [ModuleVector({(l, vac): ONE}) for l in range(self.L.dim)]

    def basis_keys(self, max_degree: int):
        return [
            (l, ix)
            for l in range(self.L.dim)
            for ix in self.f.basis_keys(max_degree)
        ]

    def apply_total_index(self, k: int, v: ModuleVector) -> ModuleVector:
        t = self.takiff
        if k == t.z_index:
            return v.scale(self.c)
        i, th = t.split(k)
        rows: dict[int, dict[tuple, Scalar]] = {}
        for (l, ix), coeff in v.items():
            rows.setdefault(l, {})[ix] = coeff
        out: dict = {}
        px = t.total.parity[k]
        for l, row in rows.items():
            if not th:
                for l2, s in self.L.actions[i].column(l).items():
                    for ix, coeff in row.items():
                        add_term(out, (l2, ix), coeff * s)
            sgn = sign(px * self.L.parity[l])
            for ix2, s in self.f.apply_total_index(k, ModuleVector._of(row)).items():
                add_term(out, (l, ix2), sgn * s)
        return ModuleVector._of(out)


def cyclicity_spot_check(tm: TensorModule, seed: int = 0, samples: int = 20) -> Report:
    """Randomized cyclicity probe: words of bounded length reach the vacuum level.

    For each random nonzero vector of degree <= 2, the span of its images
    under operator words of length <= 3 must contain a nonzero vector
    supported on degree-zero module keys.
    """
    rng = random.Random(seed)
    rep = Report(f"cyclicity spot check: {tm.f.base.name}, c = {tm.c}")
    rep.seed = seed
    keys = tm.basis_keys(2)
    ops = list(range(tm.takiff.total.dim))
    pool = [Scalar(k) for k in (-2, -1, 1, 2)] + [I]

    failures = 0
    for trial in range(samples):
        n_terms = rng.randint(1, 3)
        terms = {}
        for _ in range(n_terms):
            terms[rng.choice(keys)] = rng.choice(pool)
        v = ModuleVector(terms)
        if not v:
            continue

        span = EchelonSpan()
        frontier = [v]
        span.add(v)
        for _ in range(3):
            new_frontier = []
            for w in frontier:
                for op in ops:
                    img = tm.apply_total_index(op, w)
                    if img and span.add(img):
                        new_frontier.append(img)
            frontier = new_frontier
            if not frontier:
                break

        # the span misses the vacuum level exactly when a basis of it stays
        # independent with the degree-zero keys dropped
        above = EchelonSpan()
        if all(
            above.add(ModuleVector({k: s for k, s in row.items() if sum(k[1])}))
            for row in span.pivots.values()
        ):
            failures += 1
    witness = f"{failures} samples failed" if failures else None
    rep.add(f"all {samples} sampled vectors reach the vacuum level", witness)
    return rep


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
    rhs = char_product(fock_character(rd, c, trunc), ch_ls)  # kept up to the lower truncation
    rep.data["rhs"] = {
        "anchor": [str(v) for v in rhs.anchor.values] + [str(rhs.anchor.level)],
        "terms": [{"offset": list(o), "mult": m} for o, m in rhs.terms()],
        "truncation": rhs.truncation,
    }
    rep.add(
        "right side anchored at the requested weight",
        None if rhs.anchor == lam else f"anchor {_weight_str(rhs.anchor)} != {_weight_str(lam)}",
    )
    if ch_l is not None:
        rep.add("matches the supplied character", char_difference(rhs, ch_l))
    return rep


def nilchar_to_dict(nc: NilCharacter) -> dict:
    return {
        "algebra": nc.algebra.name,
        "domain": list(nc.domain),
        "values": {str(i): str(s) for i, s in sorted(nc.values.items())},
    }


def character_from_dict(d: dict):
    anchor = weight_from_dict(d["anchor"])
    terms = {tuple(t["offset"]): t["mult"] for t in d["terms"]}
    nsimple = len(d["terms"][0]["offset"]) if d["terms"] else 0
    return FormalCharacter(anchor, d["truncation"], nsimple, terms)


def module_vector_from_dict(f, terms: list):
    position = {letter: n for n, letter in enumerate(f.letters)}
    out = {}
    for term in terms:
        key = [0] * len(f.letters)
        for lab, mexp in term.get("poly", {}).items():
            key[position["poly", lab]] = mexp
        for kind in ("grass", "cliff"):
            for lab in term.get(kind, []):
                key[position[kind, lab]] = 1
        out[tuple(key)] = Scalar.parse(term["coeff"])
    return ModuleVector(out)

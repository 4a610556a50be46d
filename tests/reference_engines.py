"""Earlier engines of the package, kept as references for differential tests.

`ReferenceFock` is the five-branch letter engine that `FockModule` used before
its slots became one letter rule: one hand-written branch per slot kind, the
Koszul sign counted separately over the grass and the Clifford letters, and a
fresh vector for every slot. It splits each flat key into its polynomial,
Grassmann and Clifford exponents, as the module stored them before a key
became one exponent tuple, and joins them again for the result.
`reference_apply_lift` is the lift that `FockModule.apply_lift` computed
before it compiled each phi(e_i) into a slot table: it sums
phi(bar[s, u^j]) phi(bar u_j) / 2c over j on every call, with two barred
actions and one bracket per dual index. `whittaker_kernel` solves
one truncation of the Whittaker system from scratch.
`reference_verify_algebra` and `reference_verify_takiff` check super Jacobi
and form invariance by scanning every basis triple, as the structure checks did before they joined the sparse
bracket table with the form. `reference_rref` and the `reference_rank`,
`reference_kernel_basis`, `reference_solve` and `reference_invert` built on it
are the batch elimination that served those four functions before one
reduced-echelon core served them and `EchelonSpan`: it picks each column's
pivot by scanning the remaining rows. `ReferenceEchelonSpan` is the span that
kept its rows in forward echelon form, each with its combination of the
member vectors. `reference_parse` is the scalar reader that split a string
into signed terms by hand and matched each with its own regex before one
regex held the whole grammar. `reference_basis_keys` lists Fock monomials by
a product over the Grassmann and Clifford bits and a recursive walk over the
polynomial exponents, sorted as three exponent tuples and then joined.
`reference_barred_commutators` holds the hand-written barred commutator
constants that the relation check used before it read them from the
extension's bracket table. `reference_verify_relations` is that check, the
operator loop that applied every ordered pair of barred generators to every
basis vector up to a degree bound; a Fock module now checks the same
relations once, exactly and at every degree, as its slot table, so the loop
stays as the operator-level cross-check of `apply_barred`.
`reference_verify_whittaker_covariance` is the covariance check before it read
local nilpotency off the lift tables by height: it applied X - chi_hat(X) at
most 8 times to every monomial up to a degree bound. `reference_fock_guards`
holds the two guards that construction ran before the slot table replaced
them: the dual bases' pairing loop and the isotropy loop of the annihilator
span. `reference_takiff_from_dict` is the exact
extension-file loader before it compared the stored and rebuilt bracket
tables in one step: it walks every bracket key of both tables in sorted
order. `reference_odd_form_prime` pairs two vectors under the odd form term by
term, splitting each index into its base index and theta layer, as
`odd_form_prime` did before the form was written once as the matrix `odd_form`
builds; `reference_verify_takiff` reads the odd form and the cocycle through it.
`reference_fock_character` is the census that counted the Fock module's basis
by weight, walking the polynomial exponents and the Grassmann bits of its
letter layout (`poly_slots`, `grass_slots` and the Clifford letter count), and
`reference_verma_character` multiplied one series per positive root through
two knobs (listed first coefficients and a geometric tail), both before every
character became one product over the module's generators; `unit_character`
(the character e^anchor), which that series engine and the character tests
start from, has no caller left in the package.
`reference_verify_lift_identities` checks the two lift identities by calling
`apply_lift` on every vector it meets, as `verify_lift_identities` did before
it applied each phi(e_i) to each monomial once per call and summed every
other lift from those actions.
`reference_verify_factorization` compared the extended Verma character with
the Fock character times the plain Verma character coefficient by coefficient
up to a height truncation, by expanding the three series and one product,
before the check compared the two sides' anchors, dimensions and exponent
maps at every height. `reference_simple_coordinates` solved for one positive
root's coordinates over the simple roots with one `solve` per root, before one
elimination gave every positive root's offset (`RootDatum.positive_offsets`).
`reference_root_datum_verdicts` and `reference_partition_verdict` are the
boolean expressions that decided the span and negatives checks of
`verify_root_datum` and the partition check of `verify_hat_closure` before
each of them named its first offending basis vector or root.
`reference_dumps` is the one-line JSON writer that `serialize.dumps` was
before it wrote each container with the C encoder: `json.dumps` with sorted
keys and `indent=2`, which runs json's pure-Python encoder.
`reference_decompose_into_odd_simples`, `reference_root_pairing`,
`reference_even_positive_corrections` and `reference_regularity_check` found
the odd-simple pairs of a root by covector sums over every pair of odd simples,
the simple even roots by covector differences over every pair of even roots,
and inverted the Cartan Gram matrix on every pairing, before the zeta
correction, the hat extension and the regularity check read both facts off
`RootDatum.positive_offsets` and inverted that matrix once per call.
`reference_solve_dual_elements` filled each dual's matrix with one odd-form
pairing per entry, before each [e, u_i] got one odd-form row.
`reference_gl_parity_sequence` is the greedy loop that chose each row parity of
gl(m|n) from the rows left of each parity and the previous row, before
`gl_parity_sequence` wrote down the sequence the loop always produces.
`reference_eigen_failures` checked each root vector with a `bracket` call and a
scaled unit vector per Cartan element, before `superalg.eigen_failures` read
[h, x] off the bracket table for `verify_root_datum` and the root-datum loader.
`reference_pairing_word_check` is the word-pairing check that folded both of
its witnesses by hand and ran every pair of words, before it recorded them
through `Report.first_failure` with the triangle stopping at its first witness.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from typing import NamedTuple

from modules import char_difference, char_product

from whittak.charfun import FormalCharacter, _positive_root_offsets, fock_character, verma_character
from whittak.exactlin import (
    I,
    ONE,
    ZERO,
    Scalar,
    SparseMatrix,
    SparseVector,
    add_term,
    invert,
    kernel_basis,
    rank,
    sign,
    solve,
)
from whittak.fockrep import FockModule, ModuleVector, clifford_module_dim, enumerate_multiindices
from whittak.reports import Report
from whittak.serialize import algebra_from_dict, root_datum_from_dict
from whittak.superalg import EVEN, ODD, Root, RootDatum, SuperAlgebra, Weight, covector_text, is_index, weyl_vector
from whittak.takiff import HatDecomposition, TakiffAlgebra, build_takiff, dual_bases, odd_form, theta_derivative
from whittak.wfinite import (
    GradedNilradical,
    NilCharacter,
    _apply_word,
    _generating_subset,
    multiindex_key,
)


class FockParts(NamedTuple):
    """A flat Fock key split into its polynomial, Grassmann and Clifford exponents."""

    poly: tuple[int, ...]
    grass: tuple[int, ...]
    cliff: tuple[int, ...]


def _n_cliff(f: FockModule) -> int:
    return f.n_pairs + f.has_w


def _split(f: FockModule, key: tuple[int, ...]) -> FockParts:
    npoly, ng = len(f.poly_slots), len(f.grass_slots)
    return FockParts(key[:npoly], key[npoly : npoly + ng], key[npoly + ng :])


def _join(poly, grass, cliff) -> tuple[int, ...]:
    return tuple(poly) + tuple(grass) + tuple(cliff)


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
    def _odd_before_grass(idx: FockParts, gi: int) -> int:
        return sum(idx.grass[:gi])

    @staticmethod
    def _odd_before_cliff(idx: FockParts, ci: int) -> int:
        return sum(idx.grass) + sum(idx.cliff[:ci])

    def apply_slot(self, slot: tuple, v: ModuleVector) -> ModuleVector:
        f = self.f
        kind, k = slot
        out: dict[tuple, Scalar] = {}
        c = f.c
        for key, coeff in v.items():
            idx = _split(f, key)
            if kind == "F":
                if k in self.poly_of:
                    pi = self.poly_of[k]
                    poly = list(idx.poly)
                    poly[pi] += 1
                    add_term(out, _join(poly, idx.grass, idx.cliff), coeff)
                else:
                    gi = self.grass_of[k]
                    if idx.grass[gi]:
                        continue
                    s = sign(self._odd_before_grass(idx, gi))
                    grass = list(idx.grass)
                    grass[gi] = 1
                    add_term(out, _join(idx.poly, grass, idx.cliff), coeff * s)
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
                        _join(poly, idx.grass, idx.cliff),
                        coeff * c * beta * Scalar(m),
                    )
                else:
                    gi = self.grass_of[k]
                    if not idx.grass[gi]:
                        continue
                    s = sign(self._odd_before_grass(idx, gi))
                    grass = list(idx.grass)
                    grass[gi] = 0
                    add_term(out, _join(idx.poly, grass, idx.cliff), coeff * c * beta * s)
            elif kind == "b":
                if idx.cliff[k]:
                    continue
                s = sign(self._odd_before_cliff(idx, k))
                cliff = list(idx.cliff)
                cliff[k] = 1
                add_term(out, _join(idx.poly, idx.grass, cliff), coeff * s)
            elif kind == "a":
                if not idx.cliff[k]:
                    continue
                s = sign(self._odd_before_cliff(idx, k))
                cliff = list(idx.cliff)
                cliff[k] = 0
                add_term(out, _join(idx.poly, idx.grass, cliff), coeff * self.two_c * s)
            else:  # w, the unpaired Clifford letter: w . w = c/2
                wi = _n_cliff(f) - 1
                s = sign(self._odd_before_cliff(idx, wi))
                cliff = list(idx.cliff)
                if idx.cliff[wi]:
                    cliff[wi] = 0
                    add_term(out, _join(idx.poly, idx.grass, cliff), coeff * self.half_c * s)
                else:
                    cliff[wi] = 1
                    add_term(out, _join(idx.poly, idx.grass, cliff), coeff * s)
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


def reference_apply_lift(f: FockModule, s: SparseVector, v: ModuleVector) -> ModuleVector:
    """Lifted action of s (x) 1 via the dual-basis formula, evaluated afresh."""
    if not v or not s:
        return ModuleVector()
    out: dict[tuple, Scalar] = {}
    for j in range(len(f.dual.upper)):
        w = f.apply_barred(f.dual.lower[j], v)
        if not w:
            continue
        br = f.base.bracket(s, f.dual.upper[j])
        if not br:
            continue
        for idx, t in f.apply_barred(br, w).items():
            add_term(out, idx, t)
    return ModuleVector._of(out).scale(ONE / (Scalar(2) * f.c))


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


def reference_verify_algebra(a: SuperAlgebra) -> Report:
    """`verify_algebra` scanning every basis pair and ordered triple."""
    rep = Report(f"algebra checks: {a.name}")
    d, lab, par = a.dim, a.labels, a.parity

    rep.first_failure(
        "bracket respects parity",
        (
            f"[{lab[i]},{lab[j]}] has a parity-{par[k]} term {lab[k]}"
            for (i, j), v in a.table.items()
            for k in v.entries
            if par[k] != par[i] ^ par[j]
        ),
    )
    rep.first_failure(
        "super-anticommutativity",
        (
            f"[{lab[i]},{lab[j]}] != -(-1)^pq [{lab[j]},{lab[i]}]"
            for i in range(d)
            for j in range(i, d)
            if a.bracket_basis(i, j) != a.bracket_basis(j, i).scale(-sign(par[i] * par[j]))
        ),
    )

    # With anticommutativity established, ordered triples cover all triples.
    def jacobi_failures():
        for i in range(d):
            ei = SparseVector.unit(i)
            for j in range(i, d):
                pij = sign(par[i] * par[j])
                ej = SparseVector.unit(j)
                for k in range(j, d):
                    inner = a.bracket_basis(j, k)
                    lhs = a.bracket(ei, inner) if inner else SparseVector()
                    t1 = a.bracket(a.bracket_basis(i, j), SparseVector.unit(k))
                    t2 = a.bracket(ej, a.bracket_basis(i, k)).scale(pij)
                    if lhs != t1 + t2:
                        yield f"Jacobi fails at ({lab[i]},{lab[j]},{lab[k]})"

    rep.first_failure("super Jacobi identity", jacobi_failures())

    if a.form is not None:
        form = a.form
        rep.first_failure(
            "form is even",
            (
                f"form pairs {lab[r]} with {lab[c]} across parity"
                for (r, c), s in form.entries.items()
                if par[r] != par[c] and s
            ),
        )
        rep.first_failure(
            "form is supersymmetric",
            (
                f"supersymmetry fails at ({lab[i]},{lab[j]})"
                for i in range(d)
                for j in range(i, d)
                if form.get(i, j) != sign(par[i] * par[j]) * form.get(j, i)
            ),
        )

        def invariance_failures():
            for i in range(d):
                for j in range(d):
                    bij = a.bracket_basis(i, j)
                    for k in range(d):
                        lhs = ZERO
                        for t, s in bij.items():
                            f = form.get(t, k)
                            if f:
                                lhs = lhs + s * f
                        rhs = ZERO
                        for t, s in a.bracket_basis(j, k).items():
                            f = form.get(i, t)
                            if f:
                                rhs = rhs + f * s
                        if lhs != rhs:
                            yield f"invariance fails at ({lab[i]},{lab[j]},{lab[k]})"

        rep.first_failure("form is invariant", invariance_failures())

        nondeg = rank(form) == d
        rep.add("form is non-degenerate", None if nondeg else f"rank {rank(form)} < {d}")
    return rep


def reference_odd_form_prime(t: TakiffAlgebra, x: SparseVector, y: SparseVector) -> Scalar:
    """The odd invariant form on s (x) Lambda(theta).

    On basis elements: (b_i (x) 1 | b_j (x) th) = (b_i|b_j) and
    (b_i (x) th | b_j (x) 1) = (-1)^p(b_j) (b_i|b_j); same-layer pairs vanish.
    """
    acc = ZERO
    for k, a in x.items():
        if k == t.z_index:
            raise ValueError("z is not in the domain of the odd form")
        i, ti = t.split(k)
        for l, b in y.items():
            if l == t.z_index:
                raise ValueError("z is not in the domain of the odd form")
            j, tj = t.split(l)
            if ti + tj != 1:
                continue
            f = t.base.form.get(i, j)
            if not f:
                continue
            term = a * f * b
            if ti == 1:
                term = term * sign(t.base.parity[j])
            acc = acc + term
    return acc


def reference_verify_takiff(t: TakiffAlgebra) -> Report:
    """`verify_takiff` scanning every basis triple with `reference_odd_form_prime`."""
    rep = Report(f"takiff checks: {t.total.name}")
    rep.merge(reference_verify_algebra(t.total))

    tot, n, z = t.total, t.n1, t.z_index
    lab = tot.labels
    rep.first_failure(
        "z is central",
        (
            f"[z,{lab[b]}] != 0"
            for b in range(tot.dim)
            if tot.bracket_basis(z, b) or tot.bracket_basis(b, z)
        ),
    )

    def generator_rule_failures():
        for i in range(n):
            for j in range(n):
                base_br = t.base.bracket_basis(i, j)
                if tot.bracket_basis(i, j) != base_br:
                    yield f"[{lab[i]},{lab[j]}] differs from base"
                want = SparseVector({n + k: c for k, c in base_br.items()})
                if tot.bracket_basis(i, n + j) != want:
                    yield f"[{lab[i]},{lab[n + j]}] != bracket (x) theta"
                want_z = SparseVector({z: sign(t.base.parity[j]) * t.base.form.get(i, j)})
                if tot.bracket_basis(n + i, n + j) != want_z:
                    yield f"[{lab[n + i]},{lab[n + j]}] != form z-term"

    rep.first_failure("generator bracket rules", generator_rule_failures())

    def skew_failures():
        for i in range(2 * n):
            x = SparseVector.unit(i)
            px = tot.parity[i]
            for j in range(i, 2 * n):
                y = SparseVector.unit(j)
                lhs = reference_odd_form_prime(t, theta_derivative(t, x), y)
                rhs = -sign(px * tot.parity[j]) * reference_odd_form_prime(t, theta_derivative(t, y), x)
                if lhs != rhs:
                    yield f"cocycle skewsymmetry fails at ({lab[i]},{lab[j]})"

    rep.first_failure("cocycle super-skewsymmetry", skew_failures())

    def invariance_failures():
        for i in range(2 * n):
            x = SparseVector.unit(i)
            for j in range(2 * n):
                y = SparseVector.unit(j)
                bxy_th = tot.bracket(x, y)
                bxy_strip = SparseVector({k: s for k, s in bxy_th.items() if k != z})
                for w in range(2 * n):
                    wv = SparseVector.unit(w)
                    byw = tot.bracket(y, wv)
                    byw_strip = SparseVector({k: s for k, s in byw.items() if k != z})
                    if reference_odd_form_prime(t, bxy_strip, wv) != reference_odd_form_prime(t, x, byw_strip):
                        yield f"odd form invariance fails at ({lab[i]},{lab[j]},{lab[w]})"

    rep.first_failure("odd form invariance", invariance_failures())
    return rep


def reference_rref(rows: list[dict[int, Scalar]], ncols: int) -> tuple[list[dict[int, Scalar]], list[int]]:
    """Reduced row echelon form in place, column by column; returns (rows, pivot columns).

    Each column's pivot is the shortest remaining row holding it, found by
    scanning every remaining row, and every other row holding it is reduced.
    """
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        best = -1
        best_len = -1
        for k in range(r, nrows):
            if c in rows[k]:
                if best == -1 or len(rows[k]) < best_len:
                    best, best_len = k, len(rows[k])
        if best == -1:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        if piv != ONE:
            inv = ONE / piv
            rows[r] = {j: inv * s for j, s in rows[r].items()}
        prow = rows[r]
        for k in range(nrows):
            if k == r:
                continue
            f = rows[k].get(c)
            if f is None:
                continue
            rk = rows[k]
            for j, s in prow.items():
                add_term(rk, j, -f * s)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def reference_rank(m: SparseMatrix) -> int:
    return len(reference_rref(m.row_dicts(), m.cols)[1])


def reference_kernel_basis(m: SparseMatrix) -> list[SparseVector]:
    rows, pivots = reference_rref(m.row_dicts(), m.cols)
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivot_set):
        v = {f: ONE}
        for r, c in enumerate(pivots):
            s = rows[r].get(f)
            if s is not None:
                v[c] = -s
        basis.append(SparseVector(v))
    return basis


def reference_solve(m: SparseMatrix, b: SparseVector) -> SparseVector | None:
    aug = m.cols
    rows = m.row_dicts()
    for i, s in b.items():
        rows[i][aug] = s
    rows, pivots = reference_rref(rows, m.cols + 1)
    if aug in pivots:
        return None
    return SparseVector({c: rows[r].get(aug, ZERO) for r, c in enumerate(pivots)})


def reference_invert(m: SparseMatrix) -> list[SparseVector]:
    n = m.rows
    rows = m.row_dicts()
    for i in range(n):
        rows[i][n + i] = ONE
    rows, pivots = reference_rref(rows, 2 * n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    cols: list[dict[int, Scalar]] = [dict() for _ in range(n)]
    for r in range(n):
        for j, s in rows[r].items():
            if j >= n:
                cols[j - n][r] = s
    return [SparseVector(c) for c in cols]


class ReferenceEchelonSpan:
    """Span in forward echelon form, each row with its combination of members."""

    def __init__(self):
        # (pivot key, echelon vector with unit pivot, member combination)
        self.rows: list[tuple[object, SparseVector, dict[int, Scalar]]] = []
        self.members: list[SparseVector] = []

    def reduce(self, v: SparseVector) -> tuple[SparseVector, dict[int, Scalar]]:
        combo: dict[int, Scalar] = {}
        for p, w, wc in self.rows:
            coeff = v.get(p)
            if coeff:
                v = v - w.scale(coeff)
                for m, cm in wc.items():
                    add_term(combo, m, coeff * cm)
        return v, combo

    def add(self, v: SparseVector) -> bool:
        red, combo = self.reduce(v)
        if not red:
            return False
        k = len(self.members)
        self.members.append(v)
        p = min(red.entries)
        inv = ONE / red.get(p)
        # red = v - sum combo[m]*member[m], so the unit-pivot row is
        # inv*v - sum inv*combo[m]*member[m]
        row_combo = {m: -(inv * cm) for m, cm in combo.items()}
        add_term(row_combo, k, inv)
        self.rows.append((p, red.scale(inv), row_combo))
        return True

    def coordinates(self, v: SparseVector) -> dict[int, Scalar] | None:
        """Coefficients over the members expressing v, or None if outside."""
        red, combo = self.reduce(v)
        return None if red else combo


_TERM = re.compile(r"^([+-]?)(\d+(?:/\d+)?)?(\*?i)?$")


def reference_parse(text: str) -> Scalar:
    """Parse "p/q" or "p/q+r/s*i" (signs optional, /1 may be omitted)."""
    if not isinstance(text, str):
        raise ValueError(f"scalar {text!r} is not a string")
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    # split into at most two signed terms
    terms = []
    start = 0
    for k in range(1, len(s)):
        if s[k] in "+-" and s[k - 1] not in "+-/*":
            terms.append(s[start:k])
            start = k
    terms.append(s[start:])
    if len(terms) > 2:
        raise ValueError(f"cannot parse scalar {text!r}")
    re_part, im_part = Fraction(0), Fraction(0)
    seen_im = seen_re = False
    for term in terms:
        m = _TERM.match(term)
        if not m:
            raise ValueError(f"cannot parse scalar {text!r}")
        sign_, mag, imark = m.groups()
        if mag is None and not imark:
            raise ValueError(f"cannot parse scalar {text!r}")
        num, _, den = (mag or "1").partition("/")
        if den and int(den) == 0:
            raise ValueError(f"zero denominator in scalar {text!r}")
        val = Fraction(int(num), int(den or 1))
        if sign_ == "-":
            val = -val
        if imark:
            if seen_im:
                raise ValueError(f"duplicate imaginary part in {text!r}")
            im_part, seen_im = val, True
        else:
            if seen_re:
                raise ValueError(f"duplicate real part in {text!r}")
            re_part, seen_re = val, True
    return Scalar(re_part, im_part)


def reference_basis_keys(f: FockModule, max_degree: int) -> list[tuple[int, ...]]:
    """Monomials of degree <= max_degree, by degree then exponents."""

    def exponents_up_to(n: int, total: int):
        if n == 0:
            yield ()
            return
        for first in range(total + 1):
            for rest in exponents_up_to(n - 1, total - first):
                yield (first,) + rest

    out = []
    for grass in itertools.product((0, 1), repeat=len(f.grass_slots)):
        for cliff in itertools.product((0, 1), repeat=_n_cliff(f)):
            room = max_degree - sum(grass) - sum(cliff)
            if room < 0:
                continue
            for poly in exponents_up_to(len(f.poly_slots), room):
                out.append(FockParts(poly, grass, cliff))
    out.sort(key=lambda ix: (sum(ix.poly) + sum(ix.grass) + sum(ix.cliff), ix.poly, ix.grass, ix.cliff))
    return [_join(*ix) for ix in out]


def reference_barred_commutators(f: FockModule) -> list[tuple[SparseVector, SparseVector, Scalar]]:
    """(x, y, scalar by which [xbar, ybar] acts) over every pair of barred generators.

    [Ebar_a, Fbar_a] = (-1)^p(E_a) c, [Fbar_a, Ebar_a] = c, [Hbar_i, Hbar_i] = c,
    and every other pair commutes.
    """
    npos = len(f.positives)
    gens = [("E", i, f.dual.E[i]) for i in range(npos)] + [("F", i, f.dual.F[i]) for i in range(npos)]
    gens += [("H", i, h) for i, h in enumerate(f.dual.H)]

    def expected(kx, ix, ky, iy) -> Scalar:
        if kx == "E" and ky == "F" and ix == iy:
            return sign(f.positives[ix].parity) * f.c
        if kx == "F" and ky == "E" and ix == iy:
            # the E-F value transported by super-anticommutativity is c for
            # both root parities
            return f.c
        if kx == "H" and ky == "H" and ix == iy:
            return f.c
        return ZERO

    return [(x, y, expected(kx, ix, ky, iy)) for kx, ix, x in gens for ky, iy, y in gens]


def reference_verify_relations(f: FockModule, max_degree: int) -> Report:
    """Defining commutators of the barred generators as operator identities.

    [xbar, ybar] must act by c times the z-coefficient of the extension's
    bracket [x (x) theta, y (x) theta]; checked on every basis vector up to
    the degree bound.
    """
    rep = Report(f"barred generator relations: {f.base.name}, c = {f.c}")
    t = f.takiff
    vectors = [ModuleVector({ix: ONE}) for ix in f.basis_keys(max_degree)]
    npos = len(f.positives)
    gens: list[tuple[str, int, SparseVector, int]] = []
    for i in range(npos):
        p = f.positives[i].parity
        gens.append(("E", i, f.dual.E[i], p ^ 1))
        gens.append(("F", i, f.dual.F[i], p ^ 1))
    for i, h in enumerate(f.dual.H):
        gens.append(("H", i, h, ODD))

    def failures():
        for kx, ix, x, px in gens:
            for ky, iy, y, py in gens:
                want = f.c * t.total.bracket(t.embed(x, 1), t.embed(y, 1)).get(t.z_index)
                for v in vectors:
                    lhs = f.apply_barred(x, f.apply_barred(y, v)) - f.apply_barred(
                        y, f.apply_barred(x, v)
                    ).scale(sign(px * py))
                    if lhs != v.scale(want):
                        yield f"[{kx}bar[{ix}], {ky}bar[{iy}]] mismatch on {next(iter(v.terms))}"

    rep.first_failure("generator commutator table", failures())
    return rep


def reference_verify_whittaker_covariance(f: FockModule, chi_hat: dict[int, Scalar], max_degree: int) -> Report:
    """(X - chi_hat(X)) kills the vacuum and is nilpotent within 8 steps on low degrees.

    chi_hat holds the expected eigenvalues on the unbarred even positive root
    vectors, keyed by position in the positive-root list.
    """
    offenders = [
        i
        for i in f.poly_slots
        if f.eta.get(i) and f.rd.roots[f.rd.positive[i]] not in f.rd.simple_roots()
    ]
    if offenders:
        raise ValueError(f"twist supported outside the simple odd roots: positions {offenders}")

    rep = Report(f"whittaker covariance: {f.base.name}, c = {f.c}")
    vac = f.vacuum()
    rep.first_failure(
        "vacuum eigen-equations",
        (
            f"vacuum is not an eigenvector for even positive root {i}"
            for i in f.grass_slots
            if f.apply_lift(f.dual.E[i], vac) != vac.scale(chi_hat.get(i, ZERO))
        ),
    )

    def nilpotency_failures():
        keys = f.basis_keys(max_degree)
        for i in f.grass_slots:
            X, val = f.dual.E[i], chi_hat.get(i, ZERO)
            for ix in keys:
                y = ModuleVector({ix: ONE})
                steps = 0
                while y and steps < 8:
                    y = f.apply_lift(X, y) - y.scale(val)
                    steps += 1
                if y:
                    yield f"(X - value) not nilpotent within 8 steps at {ix}"

    rep.first_failure("local nilpotency up to the bound", nilpotency_failures())
    return rep


def reference_fock_guards(a: SuperAlgebra, rd: RootDatum) -> None:
    """The two checks a Fock module's construction made before it checked its slot table:
    the dual bases' q x q pairing (upper[i]|lower[j]) = d_ij, and the isotropy of the
    annihilator span (the E_i and the a_k) under the form. Raises ValueError as they did."""
    db = dual_bases(a, rd)
    for i in range(len(db.upper)):
        for j in range(len(db.lower)):
            want = ONE if i == j else ZERO
            got = a.form_pair(db.upper[i], db.lower[j])
            if got != want:
                raise ValueError(f"dual basis pairing ({i},{j}) = {got}, expected {want}")
    H = db.H
    iso = db.E + [H[2 * k] + H[2 * k + 1].scale(I) for k in range(len(H) // 2)]
    for x in iso:
        for y in iso:
            if a.form_pair(x, y):
                raise ValueError("annihilator span is not isotropic")


def reference_takiff_from_dict(d: dict) -> TakiffAlgebra:
    if "takiff_of" not in d:
        raise ValueError("not an extension file: missing takiff_of")
    total = algebra_from_dict(d)
    base = algebra_from_dict(d["base_algebra"])
    rd = root_datum_from_dict(d["root_datum"], base)
    z = d["layout"]["z"]
    # the stored extension must be the one its base algebra and root datum define
    t, _ = build_takiff(base, rd)
    layout = (total.labels, total.parity, z)
    if not is_index(z, t.total.dim) or layout != (t.total.labels, t.total.parity, t.z_index):
        raise ValueError("the stored extension's basis or layout differs from its base algebra's")
    for key in sorted(total.table.keys() | t.total.table.keys()):
        if total.table.get(key) != t.total.table.get(key):
            raise ValueError(f"stored bracket {key} differs from the one its base algebra defines")
    return t


def _reference_multiply_series(
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


def unit_character(anchor: Weight, trunc: int, nsimple: int) -> FormalCharacter:
    """The character e^anchor: coefficient 1 at offset zero."""
    return FormalCharacter(anchor, trunc, nsimple, {(0,) * nsimple: 1})


def reference_verma_character(rd: RootDatum, lam: Weight, trunc: int, hatted: bool = True) -> FormalCharacter:
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
            ch = _reference_multiply_series(ch, offset, [1], 2)
        elif parity == EVEN:
            ch = _reference_multiply_series(ch, offset, None, 1)
        else:
            ch = _reference_multiply_series(ch, offset, [1, 1], None)
    if hatted:
        k = clifford_module_dim(len(rd.cartan), bool(lam.level))
        scaled = {o: k * m for o, m in ch.coeffs.items() if k * m}
        ch = FormalCharacter(ch.anchor, ch.truncation, ch.nsimple, scaled)
    return ch


def reference_fock_character(f: FockModule, trunc: int) -> FormalCharacter:
    """Exact census of the module basis by weight, up to the height truncation."""
    if f.twisted:
        raise ValueError("twisted modules are not weight modules")
    rd = f.rd
    offsets = _positive_root_offsets(rd)
    nsimple = len(rd.simple)
    poly_offsets = [offsets[i][0] for i in f.poly_slots]
    grass_offsets = [offsets[i][0] for i in f.grass_slots]
    cliff_factor = 2 ** _n_cliff(f)
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


def reference_verify_lift_identities(f: FockModule, max_degree: int) -> Report:
    """The two lift identities, exactly, on every basis vector up to degree."""
    rep = Report(f"lift identities: {f.base.name}, c = {f.c}, degree <= {max_degree}")
    vectors = [ModuleVector({ix: ONE}) for ix in f.basis_keys(max_degree)]
    base = f.base
    count = 0

    def failures(others, act, witness):
        # [phi(s), act(y)] = act([s, y]) for every basis s and every listed (y, parity)
        nonlocal count
        for si in range(base.dim):
            s = SparseVector.unit(si)
            for k, (y, py) in enumerate(others):
                br = base.bracket(s, y)
                sgn = sign(base.parity[si] * py)
                for v in vectors:
                    lhs = f.apply_lift(s, act(y, v)) - act(y, f.apply_lift(s, v)).scale(sgn)
                    rhs = act(br, v)
                    count += 1
                    if lhs != rhs:
                        yield witness(base.labels[si], k)

    duals = [(u, (p + 1) % 2) for u, p in zip(f.dual.lower, f.dual.upper_parity)]
    rep.first_failure(
        "commutator with barred duals",
        failures(
            duals, f.apply_barred, lambda s, k: f"[phi({s}), phi(bar u_{k})] != phi(bar[s,u_{k}])"
        ),
    )
    units = [(SparseVector.unit(ti), p) for ti, p in enumerate(base.parity)]
    rep.first_failure(
        "commutator of two lifts",
        failures(
            units, f.apply_lift, lambda s, k: f"[phi({s}), phi({base.labels[k]})] != phi([s,t])"
        ),
    )
    rep.data["identities_checked"] = count
    return rep


def reference_root_datum_verdicts(a: SuperAlgebra, rd: RootDatum) -> tuple[bool, bool]:
    """(cartan and root spaces span, negatives are minus positives) as set comparisons."""
    covered = set(rd.cartan)
    for r in rd.roots:
        covered.update(r.space)
    neg = {tuple(-v for v in rd.roots[i].covector) for i in rd.positive}
    allcov = {r.covector for r in rd.roots}
    pos_cov = {rd.roots[i].covector for i in rd.positive}
    return covered == set(range(a.dim)), allcov == neg | pos_cov and not (neg & pos_cov)


def reference_partition_verdict(t: TakiffAlgebra, hat: HatDecomposition) -> bool:
    """Partition covers the basis, as one sorted-list comparison."""
    parts = sorted(set(hat.n_hat) | set(hat.h_hat) | set(hat.n_minus_hat))
    return parts == list(range(t.total.dim))


def reference_verify_factorization(t: TakiffAlgebra, c: Scalar, lam: Weight, trunc: int) -> Report:
    """Extended Verma character equals the Fock character times the plain Verma character,
    coefficient by coefficient up to height trunc."""
    rep = Report(f"character factorization: {t.base.name}, c = {c}, height <= {trunc}")
    if lam.level != c:
        raise ValueError("the weight's level must match the level c")
    lhs = verma_character(t.rd, lam, trunc, hatted=True)
    shifted = (lam - weyl_vector(t.rd)).restrict()
    rhs = char_product(fock_character(t.rd, c, trunc), verma_character(t.rd, shifted, trunc, hatted=False))
    rep.add("coefficientwise equality", char_difference(lhs, rhs))
    rep.data["truncation"] = trunc
    return rep


def reference_simple_coordinates(rd: RootDatum, root: Root) -> tuple[int, ...] | None:
    """Nonnegative integer coordinates of a positive root over the simples."""
    simples = rd.simple_roots()
    mat = SparseMatrix(
        len(rd.cartan),
        len(simples),
        {
            (r, c): s.covector[r]
            for c, s in enumerate(simples)
            for r in range(len(rd.cartan))
            if s.covector[r]
        },
    )
    sol = solve(mat, SparseVector({r: v for r, v in enumerate(root.covector) if v}))
    if sol is None:
        return None
    coords = [0] * len(simples)
    for c, s in sol.items():
        k = s.as_int()
        if k is None or k < 0:
            return None
        coords[c] = k
    return tuple(coords)


def reference_dumps(obj) -> str:
    """The text of a file or report as the package wrote it with json's pure-Python encoder."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def reference_decompose_into_odd_simples(rd: RootDatum, root: Root) -> list[tuple[int, int]]:
    """Pairs (i, j) of odd-simple root indices with alpha_i + alpha_j = root, by covector sums."""
    odd = [i for i in rd.simple if rd.roots[i].parity == ODD]
    out = []
    for a in range(len(odd)):
        for b in range(a, len(odd)):
            ra, rb = rd.roots[odd[a]], rd.roots[odd[b]]
            if tuple(x + y for x, y in zip(ra.covector, rb.covector)) == root.covector:
                out.append((odd[a], odd[b]))
    return out


def reference_root_pairing(base: SuperAlgebra, rd: RootDatum, cov1, cov2) -> Scalar:
    """(alpha|beta) as alpha . G^-1 . beta, inverting the Cartan Gram matrix G on every call."""
    cartan = rd.cartan
    gram = SparseMatrix(
        len(cartan),
        len(cartan),
        {(a, b): base.form.get(h, k) for a, h in enumerate(cartan) for b, k in enumerate(cartan)},
    )
    acc = ZERO
    for b, col in enumerate(invert(gram)):
        for a, s in col.items():
            acc = acc + cov1[a] * s * cov2[b]
    return acc


def reference_even_positive_corrections(t: TakiffAlgebra, c: Scalar):
    """(base index, (barred index 1, barred index 2, pairing/(c*k)) or None) per even positive root,
    from the first covector-sum pair of odd simples."""
    rd, base = t.rd, t.base
    out = []
    for pidx in rd.positive:
        r = rd.roots[pidx]
        if r.parity != EVEN:
            continue
        (bidx,) = r.space
        pairs = reference_decompose_into_odd_simples(rd, r)
        if not pairs:
            out.append((bidx, None))
            continue
        i1, i2 = pairs[0]
        (x1,) = rd.roots[i1].space
        (x2,) = rd.roots[i2].space
        br = base.bracket_basis(x1, x2)
        k = br.get(bidx)
        if not k or set(br.entries) != {bidx}:
            out.append((bidx, None))
            continue
        pairing = reference_root_pairing(base, rd, rd.roots[i1].covector, rd.roots[i2].covector)
        out.append((bidx, (t.theta(x1), t.theta(x2), pairing / (c * k))))
    return out


def reference_regularity_check(zeta: NilCharacter, rd: RootDatum) -> Report:
    """Regularity with simple even roots found by covector differences over every pair of even
    positive roots, and the structural claim over every covector-sum pair of odd simples."""
    rep = Report("regularity of the corrected character")
    evens = [rd.roots[i] for i in rd.positive if rd.roots[i].parity == EVEN]
    cov_set = {r.covector for r in evens}
    simple_evens = []
    for r in evens:
        decomposable = False
        for s in evens:
            diff = tuple(a - b for a, b in zip(r.covector, s.covector))
            if diff != r.covector and diff in cov_set:
                decomposable = True
                break
        if not decomposable:
            simple_evens.append(r)

    vanishing = []
    for r in simple_evens:
        (bidx,) = r.space
        if not zeta.value(bidx):
            vanishing.append(zeta.algebra.labels[bidx])
    rep.add("nonvanishing on every simple even root vector", f"vanishes on {', '.join(vanishing)}" if vanishing else None)
    rep.data["simple_even_roots"] = len(simple_evens)

    def norm(i):
        return reference_root_pairing(zeta.algebra, rd, rd.roots[i].covector, rd.roots[i].covector)

    def structural_failures():
        for r in simple_evens:
            ok = False
            for i1, i2 in reference_decompose_into_odd_simples(rd, r):
                if i1 != i2:
                    iso1, iso2 = norm(i1), norm(i2)
                    if not iso1 and not iso2:
                        ok = True
                elif norm(i1):
                    ok = True
            if not ok:
                yield f"structural claim fails for {covector_text(r.covector)}"

    rep.first_failure("simple even roots split over the odd simples", structural_failures())
    return rep


def reference_solve_dual_elements(t: TakiffAlgebra, g: GradedNilradical, e: SparseVector) -> list[SparseVector]:
    """The duals x_j with ([e, u_i] | x_j)' = delta_ij, each matrix entry one odd-form pairing."""
    tot = t.total
    e_tot = t.embed(e, 0)
    ws = [tot.bracket(e_tot, SparseVector.unit(u)) for u in g.u_indices]
    m = len(ws)
    form = odd_form(t)
    duals = []
    for j, u in enumerate(g.u_indices):
        candidates = [
            k
            for k in range(tot.dim)
            if k != t.z_index and g.degrees[k] == -g.degrees[u] - 1 and tot.parity[k] == tot.parity[u]
        ]
        mat = SparseMatrix(
            m,
            len(candidates),
            {
                (i, ci): form.pair(ws[i], SparseVector.unit(k))
                for i in range(m)
                for ci, k in enumerate(candidates)
            },
        )
        sol = solve(mat, SparseVector({j: ONE}))
        if sol is None:
            raise ValueError(f"the pairing against [e, u_{j}] is singular")
        duals.append(SparseVector({candidates[ci]: s for ci, s in sol.items()}))
    return duals


def reference_gl_parity_sequence(m: int, n: int) -> list[int]:
    seq: list[int] = []
    rem = [m, n]
    prev = -1
    while rem[0] or rem[1]:
        if rem[0] and rem[1]:
            if rem[0] > rem[1]:
                p = 0
            elif rem[1] > rem[0]:
                p = 1
            else:
                p = 1 - prev if prev in (0, 1) else 0
        else:
            p = 0 if rem[0] else 1
        seq.append(p)
        rem[p] -= 1
        prev = p
    return seq


def reference_eigen_failures(a: SuperAlgebra, rd: RootDatum):
    for r in rd.roots:
        for x in r.space:
            xv = SparseVector.unit(x)
            for pos, h in enumerate(rd.cartan):
                if a.bracket(SparseVector.unit(h), xv) != xv.scale(r.covector[pos]):
                    yield f"[{a.labels[h]},{a.labels[x]}] != root value"


def reference_pairing_word_check(
    module,
    us: list[SparseVector],
    xs: list[SparseVector],
    ds: list[int],
    odd_mask: list[bool],
    phi_values: list[Scalar],
    v: ModuleVector,
    max_weight: int,
) -> Report:
    """Triangularity of shifted u-words against x-words on an eigenvector v.

    Checks u^a x^a v = (nonzero scalar) v, recording the scalar, and
    u^a x^b v = 0 whenever a > b in the (weight asc, size desc, lex) order.
    """
    rep = Report(f"word pairing identities, weight <= {max_weight}")
    idxs = enumerate_multiindices(ds, odd_mask, max_weight)
    idxs.sort(key=lambda a: multiindex_key(a, ds))
    zero_shifts = [ZERO] * len(xs)

    vac_key, vac_coeff = next(iter(v.items()))
    scalars = {}
    bad_diag = None
    bad_tri = None
    checked = 0
    for bi, b in enumerate(idxs):
        xbv = _apply_word(module, xs, b, zero_shifts, v)
        for ai, a in enumerate(idxs):
            if ai < bi:
                continue  # only a >= b in the total order
            w = _apply_word(module, us, a, phi_values, xbv)
            checked += 1
            if ai == bi:
                # diagonal: proportional to v with a nonzero scalar
                if not w:
                    bad_diag = bad_diag or f"u^{a} x^{a} v = 0"
                    continue
                coeff = w.get(vac_key) / vac_coeff
                if w != v.scale(coeff) or not coeff:
                    bad_diag = bad_diag or f"u^{a} x^{a} v is not a nonzero multiple of v"
                else:
                    scalars[str(a)] = str(coeff)
            elif w:
                bad_tri = bad_tri or f"u^{a} x^{b} v != 0"
    rep.add("diagonal words return nonzero multiples of v", bad_diag)
    rep.add("higher words annihilate v", bad_tri)
    rep.data["diagonal_scalars"] = scalars
    rep.data["pairs_checked"] = checked
    return rep

"""Nilcharacters, graded nilradical data, Whittaker solving, word pairings.

Covers the character calculus attached to an odd principal nilpotent
(chi from e, the hat extension, the zeta correction and its regularity),
the dual-element system behind the Whittaker-functor equivalence, and the
triangular pairing identities of shifted operator words.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .exactlin import (
    ONE,
    ZERO,
    EchelonSpan,
    Scalar,
    SparseMatrix,
    SparseVector,
    add_term,
    invert,
    kernel_basis,
    rank,
    solve,
)
from .fockrep import ModuleVector, enumerate_multiindices
from .reports import Report
from .superalg import EVEN, ODD, RootDatum, SuperAlgebra, covector_text, grading_by_adh, is_index
from .takiff import TakiffAlgebra, odd_form


class NilCharacter(NamedTuple):
    """Linear functional on a bracket-closed nilpotent index set.

    Vanishes on commutators and on odd basis elements; both are enforced by
    the constructor function.
    """

    algebra: SuperAlgebra
    domain: tuple[int, ...]
    values: dict[int, Scalar]

    def value(self, i: int) -> Scalar:
        return self.values.get(i, ZERO)

    def value_of(self, v: SparseVector) -> Scalar:
        acc = ZERO
        for i, s in v.items():
            val = self.values.get(i)
            if val:
                acc = acc + s * val
        return acc


def nil_character(algebra: SuperAlgebra, domain, values: dict[int, Scalar]) -> NilCharacter:
    dom = tuple(sorted(set(domain)))
    for i in dom + tuple(values):
        if not is_index(i, algebra.dim):
            raise ValueError(f"character index {i!r} outside 0..{algebra.dim - 1}")
    dset = set(dom)
    vals = {i: s for i, s in values.items() if s}
    nc = NilCharacter(algebra, dom, vals)
    for i in vals:
        if i not in dset:
            raise ValueError(f"value on index {i} outside the domain")
        if algebra.parity[i] == ODD:
            raise ValueError(f"nonzero value on odd element {algebra.labels[i]}")
    for i in dom:
        for j in dom:
            br = algebra.bracket_basis(i, j)
            if any(k not in dset for k in br.entries):
                raise ValueError(
                    f"domain not bracket-closed at [{algebra.labels[i]},{algebra.labels[j]}]"
                )
            acc = nc.value_of(br)
            if acc:
                raise ValueError(
                    f"character property fails: value([{algebra.labels[i]},{algebra.labels[j]}]) = {acc}"
                )
    return nc


def _odd_simple_pairs(rd: RootDatum, offsets: list[tuple[int, ...]]) -> dict[int, tuple[int, int]]:
    """Each positive root that is a sum of two odd simple roots, by root index, with the pair (i, j)
    of simple root indices, i first among the simples: its offset over the simples is e_a + e_b, or
    2 e_a, at odd simple positions a <= b, and since an offset is unique the pair is too."""
    out = {}
    for pidx, o in zip(rd.positive, offsets):
        at = [a for a, k in enumerate(o) for _ in range(k)]
        if len(at) == 2 and all(rd.roots[rd.simple[a]].parity == ODD for a in at):
            out[pidx] = (rd.simple[at[0]], rd.simple[at[1]])
    return out


def root_pairing(base: SuperAlgebra, rd: RootDatum):
    """(alpha|beta) on covectors, as alpha . G^-1 . beta for the Gram matrix G of the form on the
    Cartan basis, inverted at the first pairing; a singular G raises ValueError there."""
    inverse = None

    def pair(cov1, cov2) -> Scalar:
        nonlocal inverse
        if inverse is None:
            cartan = rd.cartan
            forms = {(a, b): base.form.get(h, k) for a, h in enumerate(cartan) for b, k in enumerate(cartan)}
            inverse = invert(SparseMatrix(len(cartan), len(cartan), forms))
        return sum((cov1[a] * s * cov2[b] for b, col in enumerate(inverse) for a, s in col.items()), ZERO)

    return pair


def _even_positive_corrections(t: TakiffAlgebra, c: Scalar):
    """For each even positive root: (base index, correction data or None).

    The correction data is (barred index 1, barred index 2, pairing/(c*k))
    where [X1, X2] = k * E_root for the root's odd-simple pair.
    """
    rd, base = t.rd, t.base
    pairs = _odd_simple_pairs(rd, rd.positive_offsets())
    pairing = root_pairing(base, rd)
    out = []
    for pidx in rd.positive:
        r = rd.roots[pidx]
        if r.parity != EVEN:
            continue
        (bidx,) = r.space
        corr = None
        if pidx in pairs:
            i1, i2 = pairs[pidx]
            (x1,), (x2,) = rd.roots[i1].space, rd.roots[i2].space
            br = base.bracket_basis(x1, x2)
            k = br.get(bidx)
            if k and set(br.entries) == {bidx}:
                factor = pairing(rd.roots[i1].covector, rd.roots[i2].covector) / (c * k)
                corr = (t.theta(x1), t.theta(x2), factor)
        out.append((bidx, corr))
    return out


def zeta_from_chi(t: TakiffAlgebra, chi: NilCharacter, c: Scalar) -> NilCharacter:
    """Corrected character on the even nilradical of the base algebra.

    On a root vector X of an even positive root, zeta(X) = chi(X) minus
    (alpha1|alpha2)/c times the product of the barred values, whenever the
    root splits as a sum of two odd simples; plain chi(X) otherwise.
    """
    if not c:
        raise ValueError("the level must be nonzero")
    vals: dict[int, Scalar] = {}
    domain = []
    for bidx, corr in _even_positive_corrections(t, c):
        domain.append(bidx)
        v = chi.value(bidx)
        if corr is not None:
            b1, b2, factor = corr
            v = v - factor * chi.value(b1) * chi.value(b2)
        if v:
            vals[bidx] = v
    return nil_character(t.base, domain, vals)


def _check_twist_support(rd: RootDatum, twisted: list[int]) -> None:
    """Raise unless every twisted positive-root position holds a simple root."""
    outside = [covector_text(rd.positive_roots()[k].covector) for k in twisted if rd.positive[k] not in rd.simple]
    if outside:
        raise ValueError(f"twist supported outside the simple odd roots: {', '.join(outside)}")


def hat_eta(t: TakiffAlgebra, eta: NilCharacter, c: Scalar) -> NilCharacter:
    """Extend a barred-radical character to the even extended radical.

    Requires eta to vanish on barred non-simple odd-root vectors; the even
    unbarred values are +(alpha1|alpha2)/c times the product of barred values
    on decomposable roots, zero elsewhere.
    """
    if not c:
        raise ValueError("the level must be nonzero")
    rd = t.rd
    pos = rd.positive_roots()
    _check_twist_support(rd, [k for k, r in enumerate(pos) if r.parity == ODD and eta.value(t.theta(r.space[0]))])

    domain = [t.theta(r.space[0]) for r in pos if r.parity == ODD]
    vals = {bar: eta.value(bar) for bar in domain}  # nil_character drops the zeros
    for bidx, corr in _even_positive_corrections(t, c):
        domain.append(bidx)
        if corr is not None:
            b1, b2, factor = corr
            vals[bidx] = factor * eta.value(b1) * eta.value(b2)
    return nil_character(t.total, domain, vals)


class GradedNilradical(NamedTuple):
    """Negative part of the ad-h grading with its ordered homogeneous basis."""

    takiff: TakiffAlgebra
    h: SparseVector
    degrees: dict[int, int]
    m_indices: tuple[int, ...]
    u_indices: tuple[int, ...]

    @property
    def d(self) -> list[int]:
        return [-self.degrees[u] for u in self.u_indices]

    @property
    def odd_mask(self) -> list[bool]:
        return [self.takiff.total.parity[u] == ODD for u in self.u_indices]


def graded_nilradical(t: TakiffAlgebra, h: SparseVector) -> GradedNilradical:
    """Grade the extended algebra by ad h and collect the degree <= -1 part."""
    degrees = dict(enumerate(grading_by_adh(t.total, t.embed(h, 0))))
    negative = {k for k, deg in degrees.items() if deg <= -1}
    m = tuple(sorted(negative))
    for i, j in itertools.product(m, m):
        if not t.total.bracket_basis(i, j).entries.keys() <= negative:
            raise ValueError("negative part is not bracket-closed")
    u_order = tuple(sorted(m, key=lambda k: (t.total.parity[k], k)))
    return GradedNilradical(t, h, degrees, m, u_order)


def nilchar_from_e(t: TakiffAlgebra, g: GradedNilradical, e: SparseVector) -> NilCharacter:
    """chi(x (x) theta^i) = (e|x) for i = 1 and 0 otherwise, on the negative part."""
    if t.base.parity_of(e) != ODD:
        raise ValueError("e must be odd")
    if t.base.bracket(g.h, e) != e:
        raise ValueError("e must be homogeneous of ad-h degree 1")
    vals: dict[int, Scalar] = {}
    for k in g.m_indices:
        i, th = t.split(k)
        if th:
            v = t.base.form_pair(e, SparseVector.unit(i))
            if v:
                vals[k] = v
    return nil_character(t.total, g.m_indices, vals)


def solve_dual_elements(t: TakiffAlgebra, g: GradedNilradical, e: SparseVector) -> list[SparseVector]:
    """Homogeneous duals x_j with ([e, u_i] | x_j)' = delta_ij, solved exactly."""
    tot = t.total
    e_tot = t.embed(e, 0)
    # e lies in the theta-free layer, so no [e, u_i] has a z term
    ws = [tot.bracket(e_tot, SparseVector.unit(u)) for u in g.u_indices]
    m = len(ws)
    if rank(SparseMatrix.from_columns(ws, tot.dim)) != m:
        raise ValueError("ad e is not injective on the negative part")
    form = odd_form(t)
    form_rows = form.row_dicts()
    # each [e, u_i]'s row under the odd form: entry k is ([e, u_i] | b_k)'
    rows: list[dict[int, Scalar]] = [{} for _ in ws]
    for row, w in zip(rows, ws):
        for a, s in w.items():
            for k, f in form_rows[a].items():
                add_term(row, k, s * f)

    duals: list[SparseVector] = []
    for j, u in enumerate(g.u_indices):
        d_j = -g.degrees[u]
        want_parity = tot.parity[u]
        candidates = [
            k
            for k in range(tot.dim)
            if k != t.z_index and g.degrees[k] == d_j - 1 and tot.parity[k] == want_parity
        ]
        mat = SparseMatrix(
            m,
            len(candidates),
            {(i, ci): row[k] for i, row in enumerate(rows) for ci, k in enumerate(candidates) if k in row},
        )
        sol = solve(mat, SparseVector({j: ONE}))
        if sol is None:
            raise ValueError(f"the pairing against [e, u_{j}] is singular")
        x = SparseVector({candidates[ci]: s for ci, s in sol.items()})
        duals.append(x)

    for i in range(m):
        for j in range(m):
            want = ONE if i == j else ZERO
            if form.pair(ws[i], duals[j]) != want:
                raise RuntimeError("dual-element system verification failed")
    return duals


def verify_skryabin_conditions(g: GradedNilradical, phi: NilCharacter, duals: list[SparseVector]) -> Report:
    """The three normalization conditions of the shifted-word equivalence, on the duals x_j of
    `solve_dual_elements`."""
    t = g.takiff
    tot = t.total
    mset = set(g.m_indices)
    rep = Report(f"whittaker-functor conditions: {tot.name}")

    def in_m_minus_1(br):
        return all(k in mset and g.degrees[k] == -1 for k in br.entries)

    def diagonal_failures():
        for i, u in enumerate(g.u_indices):
            br = tot.bracket(SparseVector.unit(u), duals[i])
            if not in_m_minus_1(br):
                yield f"[u_{i}, x_{i}] is not in degree -1 of the negative part"
            if phi.value_of(br) != ONE:
                yield f"phi([u_{i}, x_{i}]) = {phi.value_of(br)} != 1"

    def off_diagonal_failures():
        for i, u in enumerate(g.u_indices):
            for j in range(len(g.u_indices)):
                if i == j:
                    continue
                br = tot.bracket(SparseVector.unit(u), duals[j])
                if br and in_m_minus_1(br) and phi.value_of(br):
                    yield f"phi([u_{i}, x_{j}]) = {phi.value_of(br)} != 0"

    rep.first_failure("diagonal pairs evaluate to one", diagonal_failures())
    rep.first_failure("off-diagonal pairs evaluate to zero", off_diagonal_failures())
    rep.first_failure(
        "vanishing below degree -1",
        (
            f"phi({tot.labels[k]}) != 0 in degree {g.degrees[k]}"
            for k in g.m_indices
            if g.degrees[k] <= -2 and phi.value(k)
        ),
    )
    return rep


# -- Whittaker solving --------------------------------------------------------


class WhittakerBasis(NamedTuple):
    """Solutions and their report; the report's data holds the previous dimension and stability."""

    vectors: list[ModuleVector]
    report: Report

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    @property
    def prev_dimension(self) -> int:
        return self.report.data["previous_dimension"]

    @property
    def stable(self) -> bool:
        return self.report.data["stable"]


def _generating_subset(algebra: SuperAlgebra, domain) -> list[int]:
    """Domain indices not reachable as brackets of domain pairs."""
    span = EchelonSpan()
    for i in domain:
        for j in domain:
            br = algebra.bracket_basis(i, j)
            if br:
                span.add(br)
    gens = [i for i in domain if span.coordinates(SparseVector.unit(i)) is None]
    return gens


def whittaker_vectors(module, phi: NilCharacter, trunc: int) -> WhittakerBasis:
    """Exact kernel of the shifted action on the truncated subspace.

    The system is assembled over a bracket-generating subset of the domain
    (the remaining eigen-equations follow from the character property) and
    the full system is re-checked on the returned vectors. Solutions of the
    truncated problem are exact: images are not truncated. `module` is any
    module with `basis_keys(max_degree)` and `apply_total_index(k, v)`.

    One elimination serves both truncations: the columns of the keys of
    truncation trunc - 1 come first, and in reduced echelon form each kernel
    vector ends at its free column, so the kernel vectors ending among those
    columns span the kernel at trunc - 1.
    """
    low = module.basis_keys(trunc - 1) if trunc > 0 else []
    low_set = set(low)
    keys = low + [k for k in module.basis_keys(trunc) if k not in low_set]
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
    kernel = kernel_basis(SparseMatrix(max(len(row_ids), 1), len(keys), entries))
    prev = sum(1 for v in kernel if max(v.entries) < len(low))
    vecs = [ModuleVector({keys[i]: s for i, s in v.items()}) for v in kernel]
    rep = Report(f"whittaker vectors at truncation {trunc}")
    rep.first_failure(
        "solutions satisfy the full system",
        (
            f"full-system check fails on domain index {x}"
            for v in vecs
            for x in phi.domain
            if module.apply_total_index(x, v) - v.scale(phi.value(x))
        ),
    )
    rep.data["dimension"] = len(vecs)
    rep.data["previous_dimension"] = prev
    rep.data["stable"] = len(vecs) == prev
    return WhittakerBasis(vecs, rep)


# -- multi-index word pairings -------------------------------------------------


def multiindex_key(a: tuple[int, ...], ds: list[int]):
    """Sort key realizing: weight ascending, then size descending, then lex."""
    wt = sum(k * d for k, d in zip(a, ds))
    return (wt, -sum(a), a)


def _apply_word(module, ops: list[SparseVector], exps: tuple[int, ...], shifts: list[Scalar], v: ModuleVector):
    """ops[0]^e0 ... ops[m]^em v with optional scalar shifts, rightmost first.

    A vector x acts as the sum over its terms c_k of c_k times basis element k.
    """
    for s in range(len(ops) - 1, -1, -1):
        for _ in range(exps[s]):
            w = sum(
                (module.apply_total_index(k, v).scale(c) for k, c in ops[s].items()),
                ModuleVector(),
            )
            if shifts[s]:
                w = w - v.scale(shifts[s])
            v = w
            if not v:
                return v
    return v


def pairing_word_check(
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

    Checks u^a x^a v = (nonzero scalar) v, recording the scalar of every diagonal word, and
    u^a x^b v = 0 whenever a > b in the (weight asc, size desc, lex) order, up to the first failure.
    """
    rep = Report(f"word pairing identities, weight <= {max_weight}")
    idxs = enumerate_multiindices(ds, odd_mask, max_weight)
    idxs.sort(key=lambda a: multiindex_key(a, ds))
    xvs = [_apply_word(module, xs, b, [ZERO] * len(xs), v) for b in idxs]
    vac_key, vac_coeff = next(iter(v.items()))
    scalars = {}

    def diagonal_failures():
        for a, xav in zip(idxs, xvs):
            w = _apply_word(module, us, a, phi_values, xav)
            coeff = w.get(vac_key) / vac_coeff
            if coeff and w == v.scale(coeff):
                scalars[str(a)] = str(coeff)
            else:
                yield f"u^{a} x^{a} v {'is not a nonzero multiple of v' if w else '= 0'}"

    # every diagonal word runs, so that each passing one records its scalar
    rep.first_failure("diagonal words return nonzero multiples of v", list(diagonal_failures()))
    rep.first_failure(
        "higher words annihilate v",
        (
            f"u^{a} x^{b} v != 0"
            for bi, (b, xbv) in enumerate(zip(idxs, xvs))
            for a in idxs[bi + 1 :]
            if _apply_word(module, us, a, phi_values, xbv)
        ),
    )
    rep.data["diagonal_scalars"] = scalars
    rep.data["pairs_checked"] = len(idxs) * (len(idxs) + 1) // 2
    return rep


def appendix_pairing_check(
    module,
    g: GradedNilradical,
    phi: NilCharacter,
    duals: list[SparseVector],
    max_weight: int,
    find_trunc: int,
) -> Report:
    """Word-pairing identities over the graded negative part on a module, against the duals x_j.

    The words act on a strict eigenvector for phi over the whole negative
    part, found with the Whittaker solver at truncation find_trunc.
    """
    wb = whittaker_vectors(module, phi, find_trunc)
    if not wb.vectors:
        raise ValueError("no Whittaker vector available")
    us = [SparseVector.unit(u) for u in g.u_indices]
    phis = [phi.value(u) for u in g.u_indices]
    return pairing_word_check(module, us, duals, g.d, g.odd_mask, phis, wb.vectors[0], max_weight)


def regularity_check(zeta: NilCharacter, rd: RootDatum) -> Report:
    """Vanishing pattern on the simple even roots plus the structural claim.

    A simple even root is one whose offset over the simples is not the sum of
    two even positive roots' offsets; the structural claim is that each one is
    a sum of two distinct isotropic odd simples or twice a non-isotropic odd simple.
    """
    rep = Report("regularity of the corrected character")
    offsets = rd.positive_offsets()
    evens = {pidx: o for pidx, o in zip(rd.positive, offsets) if rd.roots[pidx].parity == EVEN}
    sums = {tuple(x + y for x, y in zip(o1, o2)) for o1 in evens.values() for o2 in evens.values()}
    simple_evens = [pidx for pidx, o in evens.items() if o not in sums]
    pairs = _odd_simple_pairs(rd, offsets)

    labels = zeta.algebra.labels
    vanishing = ", ".join(labels[x] for p in simple_evens for x in rd.roots[p].space if not zeta.value(x))
    rep.add("nonvanishing on every simple even root vector", f"vanishes on {vanishing}" if vanishing else None)
    rep.data["simple_even_roots"] = len(simple_evens)
    pairing = root_pairing(zeta.algebra, rd)

    def splits(pidx: int) -> bool:
        if pidx not in pairs:
            return False
        i1, i2 = pairs[pidx]
        iso = [not pairing(rd.roots[i].covector, rd.roots[i].covector) for i in (i1, i2)]
        return all(iso) if i1 != i2 else not iso[0]

    rep.first_failure(
        "simple even roots split over the odd simples",
        (
            f"structural claim fails for {covector_text(rd.roots[p].covector)}"
            for p in simple_evens
            if not splits(p)
        ),
    )
    return rep


def eta_for_fock(t: TakiffAlgebra, chi: NilCharacter) -> dict[int, Scalar]:
    """Restriction of a character to the barred radical, keyed for the Fock builder."""
    out: dict[int, Scalar] = {}
    for k, pidx in enumerate(t.rd.positive):
        r = t.rd.roots[pidx]
        bar = t.theta(r.space[0])
        v = chi.value(bar)
        if v:
            out[k] = v
    return out

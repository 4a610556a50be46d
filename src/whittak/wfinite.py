"""Nilcharacters, graded nilradical data, Whittaker solving, word pairings.

Covers the character calculus attached to an odd principal nilpotent
(chi from e, the hat extension, the zeta correction and its regularity),
the dual-element system behind the Whittaker-functor equivalence, and the
triangular pairing identities of shifted operator words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .exactlin import (
    ONE,
    ZERO,
    EchelonSpan,
    Scalar,
    SparseMatrix,
    SparseVector,
    add_term,
    kernel_basis,
    rank,
    solve,
)
from .fockrep import FockModule, ModuleVector
from .reports import Report
from .superalg import EVEN, ODD, Root, RootDatum, SuperAlgebra
from .takiff import TakiffAlgebra, dual_bases, odd_form_prime


@dataclass
class NilCharacter:
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
    dset = set(dom)
    vals = {i: s for i, s in values.items() if s}
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
            acc = ZERO
            for k, s in br.items():
                v = vals.get(k)
                if v:
                    acc = acc + s * v
            if acc:
                raise ValueError(
                    f"character property fails: value([{algebra.labels[i]},{algebra.labels[j]}]) = {acc}"
                )
    return NilCharacter(algebra, dom, vals)


def _decompose_into_odd_simples(rd: RootDatum, root: Root) -> list[tuple[int, int]]:
    """Pairs (i, j) of odd-simple root indices with alpha_i + alpha_j = root."""
    odd = rd.odd_simple()
    out = []
    for a in range(len(odd)):
        for b in range(a, len(odd)):
            ra, rb = rd.roots[odd[a]], rd.roots[odd[b]]
            if tuple(x + y for x, y in zip(ra.covector, rb.covector)) == root.covector:
                out.append((odd[a], odd[b]))
    return out


def root_pairing(base: SuperAlgebra, rd: RootDatum, cov1, cov2) -> Scalar:
    """(alpha|beta) on the weight space, via the orthonormal Cartan basis."""
    db = dual_bases(base, rd)
    pos_of = {h: k for k, h in enumerate(rd.cartan)}
    acc = ZERO
    for h in db.H:
        a1 = ZERO
        a2 = ZERO
        for t, s in h.items():
            a1 = a1 + cov1[pos_of[t]] * s
            a2 = a2 + cov2[pos_of[t]] * s
        acc = acc + a1 * a2
    return acc


def _even_positive_corrections(t: TakiffAlgebra, c: Scalar):
    """For each even positive root: (base index, correction data or None).

    The correction data is (barred index 1, barred index 2, pairing/(c*k))
    where [X1, X2] = k * E_root for the chosen odd-simple pair.
    """
    rd, base = t.rd, t.base
    out = []
    for pidx in rd.positive:
        r = rd.roots[pidx]
        if r.parity != EVEN:
            continue
        (bidx,) = r.space
        pairs = _decompose_into_odd_simples(rd, r)
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
        pairing = root_pairing(base, rd, rd.roots[i1].covector, rd.roots[i2].covector)
        out.append((bidx, (t.theta(x1), t.theta(x2), pairing / (c * k))))
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
        v = chi.value(t.one(bidx))
        if corr is not None:
            b1, b2, factor = corr
            v = v - factor * chi.value(b1) * chi.value(b2)
        if v:
            vals[bidx] = v
    return nil_character(t.base, domain, vals)


def hat_eta(t: TakiffAlgebra, eta: NilCharacter, c: Scalar) -> NilCharacter:
    """Extend a barred-radical character to the even extended radical.

    Requires eta to vanish on barred non-simple odd-root vectors; the even
    unbarred values are +(alpha1|alpha2)/c times the product of barred values
    on decomposable roots, zero elsewhere.
    """
    if not c:
        raise ValueError("the level must be nonzero")
    rd = t.rd
    simples = set(rd.simple)
    offenders = []
    for k, pidx in enumerate(rd.positive):
        r = rd.roots[pidx]
        if r.parity == ODD and pidx not in simples:
            if eta.value(t.theta(r.space[0])):
                offenders.append(r.covector)
    if offenders:
        raise ValueError(f"twist supported outside the simple odd roots: {offenders}")

    vals: dict[int, Scalar] = {}
    domain = []
    for pidx in rd.positive:
        r = rd.roots[pidx]
        if r.parity == ODD:
            bar = t.theta(r.space[0])
            domain.append(bar)
            v = eta.value(bar)
            if v:
                vals[bar] = v
    for bidx, corr in _even_positive_corrections(t, c):
        domain.append(bidx)
        if corr is not None:
            b1, b2, factor = corr
            v = factor * eta.value(b1) * eta.value(b2)
            if v:
                vals[bidx] = v
    return nil_character(t.total, domain, vals)


@dataclass
class GradedNilradical:
    """Negative part of the ad-h grading with its ordered homogeneous basis."""

    takiff: TakiffAlgebra
    h: SparseVector
    degrees: dict[int, int]
    m_indices: tuple[int, ...]
    u_indices: tuple[int, ...]
    x_duals: list[SparseVector] | None = None

    @property
    def d(self) -> list[int]:
        return [-self.degrees[u] for u in self.u_indices]

    @property
    def odd_mask(self) -> list[bool]:
        return [self.takiff.total.parity[u] == ODD for u in self.u_indices]


def graded_nilradical(t: TakiffAlgebra, h: SparseVector) -> GradedNilradical:
    """Grade the extended algebra by ad h and collect the degree <= -1 part."""
    from .superalg import grading_by_adh

    g = grading_by_adh(t.total, t.embed(h, 0))
    if not g.degrees:
        raise ValueError("the basis is not an eigenbasis for ad h")
    degrees = dict(enumerate(g.degrees))
    m = tuple(sorted(k for k, deg in degrees.items() if deg <= -1))
    for i, j in itertools.product(m, m):
        br = t.total.bracket_basis(i, j)
        if any(k not in set(m) for k in br.entries):
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
    ws = [tot.bracket(e_tot, SparseVector.unit(u)) for u in g.u_indices]
    m = len(ws)
    if rank(SparseMatrix.from_columns(ws, tot.dim)) != m:
        raise ValueError("ad e is not injective on the negative part")

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
            {
                (i, ci): odd_form_prime(t, ws[i], SparseVector.unit(k))
                for i in range(m)
                for ci, k in enumerate(candidates)
                if odd_form_prime(t, ws[i], SparseVector.unit(k))
            },
        )
        sol = solve(mat, SparseVector({j: ONE}))
        if sol is None:
            raise ValueError(f"the pairing against [e, u_{j}] is singular")
        x = SparseVector({candidates[ci]: s for ci, s in sol.items()})
        duals.append(x)

    for i in range(m):
        for j in range(m):
            want = ONE if i == j else ZERO
            if odd_form_prime(t, ws[i], duals[j]) != want:
                raise RuntimeError("dual-element system verification failed")
    g.x_duals = duals
    return duals


def verify_skryabin_conditions(g: GradedNilradical, phi: NilCharacter) -> Report:
    """The three normalization conditions of the shifted-word equivalence."""
    if g.x_duals is None:
        raise ValueError("dual elements have not been solved")
    t = g.takiff
    tot = t.total
    mset = set(g.m_indices)
    rep = Report(f"whittaker-functor conditions: {tot.name}")

    def in_m_minus_1(br):
        return all(k in mset and g.degrees[k] == -1 for k in br.entries)

    def diagonal_failures():
        for i, u in enumerate(g.u_indices):
            br = tot.bracket(SparseVector.unit(u), g.x_duals[i])
            if not in_m_minus_1(br):
                yield f"[u_{i}, x_{i}] is not in degree -1 of the negative part"
            if phi.value_of(br) != ONE:
                yield f"phi([u_{i}, x_{i}]) = {phi.value_of(br)} != 1"

    def off_diagonal_failures():
        for i, u in enumerate(g.u_indices):
            for j in range(len(g.u_indices)):
                if i == j:
                    continue
                br = tot.bracket(SparseVector.unit(u), g.x_duals[j])
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


@dataclass
class WhittakerBasis:
    vectors: list[ModuleVector]
    dimension: int
    prev_dimension: int
    stable: bool
    report: Report = field(default_factory=lambda: Report("whittaker solve"))


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
    return WhittakerBasis(vecs, len(vecs), prev, len(vecs) == prev, rep)


# -- multi-index word pairings -------------------------------------------------


def enumerate_multiindices(ds: list[int], odd_mask: list[bool], max_weight: int):
    """All exponent tuples with odd slots in {0,1} and weight <= max_weight."""
    out: list[tuple[int, ...]] = []

    def walk(slot: int, acc: tuple[int, ...], weight: int):
        if slot == len(ds):
            out.append(acc)
            return
        top = 1 if odd_mask[slot] else (max_weight - weight) // ds[slot]
        for k in range(0, top + 1):
            if weight + k * ds[slot] <= max_weight:
                walk(slot + 1, acc + (k,), weight + k * ds[slot])

    walk(0, (), 0)
    return out


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
                coeff = w.coefficient(vac_key) / vac_coeff
                if w != v.scale(coeff) or not coeff:
                    bad_diag = bad_diag or f"u^{a} x^{a} v is not a nonzero multiple of v"
                else:
                    scalars[str(a)] = str(coeff)
            elif w:
                bad_tri = bad_tri or f"u^{a} x^{b} v != 0"
    rep.add("diagonal words return nonzero multiples of v", bad_diag is None, bad_diag)
    rep.add("higher words annihilate v", bad_tri is None, bad_tri)
    rep.data["diagonal_scalars"] = scalars
    rep.data["pairs_checked"] = checked
    return rep


def appendix_pairing_check(
    module,
    g: GradedNilradical,
    phi: NilCharacter,
    max_weight: int,
    v: ModuleVector | None = None,
    find_trunc: int = 4,
) -> Report:
    """Word-pairing identities over the graded negative part on a module.

    A strict eigenvector for phi over the whole negative part is required;
    it is found with the Whittaker solver when not supplied.
    """
    if g.x_duals is None:
        raise ValueError("dual elements have not been solved")
    if v is None:
        wb = whittaker_vectors(module, phi, find_trunc)
        if not wb.vectors:
            raise ValueError("no Whittaker vector available")
        v = wb.vectors[0]
    else:
        for x in phi.domain:
            if module.apply_total_index(x, v) != v.scale(phi.value(x)):
                raise ValueError("the supplied vector is not a Whittaker vector")
    us = [SparseVector.unit(u) for u in g.u_indices]
    phis = [phi.value(u) for u in g.u_indices]
    return pairing_word_check(
        module, us, g.x_duals, g.d, g.odd_mask, phis, v, max_weight
    )


def regularity_check(zeta: NilCharacter, rd: RootDatum) -> Report:
    """Vanishing pattern on the simple even roots plus the structural claim.

    A simple even root is one that is not a sum of two even positive roots;
    the structural claim is that each one is a sum of two distinct isotropic
    odd simples or twice a non-isotropic odd simple.
    """
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
    rep.add(
        "nonvanishing on every simple even root vector",
        not vanishing,
        None if not vanishing else f"vanishes on {vanishing}",
    )
    rep.data["simple_even_roots"] = len(simple_evens)

    def structural_failures():
        for r in simple_evens:
            ok = False
            for i1, i2 in _decompose_into_odd_simples(rd, r):
                if i1 != i2:
                    iso1 = root_pairing(zeta.algebra, rd, rd.roots[i1].covector, rd.roots[i1].covector)
                    iso2 = root_pairing(zeta.algebra, rd, rd.roots[i2].covector, rd.roots[i2].covector)
                    if not iso1 and not iso2:
                        ok = True
                else:
                    if root_pairing(zeta.algebra, rd, rd.roots[i1].covector, rd.roots[i1].covector):
                        ok = True
            if not ok:
                yield f"structural claim fails for {r.covector}"

    rep.first_failure("simple even roots split over the odd simples", structural_failures())
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

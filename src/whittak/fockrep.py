"""Fock realizations of the barred Heisenberg-Clifford subalgebra and lifts.

A basis vector is a monomial: polynomial variables for the barred negative
odd-root vectors, Grassmann variables for the barred negative even-root
vectors, and a Clifford word over the creation half of the barred Cartan.
All operator actions are exact and lazy; nothing is materialized as a matrix.

Sign conventions are fixed by the canonical word order
    poly letters (even) . grass letters . b_1 ... b_K . w
applied to the vacuum, with Koszul signs counted over the odd letters only.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .exactlin import (
    I,
    ONE,
    ZERO,
    Scalar,
    SparseMatrix,
    SparseVector,
    add_term,
    invert,
    sign,
)
from .reports import Report
from .superalg import EVEN, ODD, SuperAlgebra, Weight, weyl_vector
from .takiff import DualBasis, TakiffAlgebra, dual_bases


class FockIndex(NamedTuple):
    poly: tuple[int, ...]
    grass: tuple[int, ...]
    cliff: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.poly) + sum(self.grass) + sum(self.cliff)

    @property
    def parity(self) -> int:
        return (sum(self.grass) + sum(self.cliff)) % 2


class ModuleVector(SparseVector):
    """Finite linear combination of module basis keys with nonzero scalars."""

    __slots__ = ()
    # the benchmark tracer (perfbench/tracing.py, `_barred`) and tests read
    # `v.terms`, so the alias must stay
    terms = SparseVector.entries
    coefficient = SparseVector.get


def clifford_module_dim(ell: int, level_nonzero: bool) -> int:
    """Dimension of the simple Clifford factor over an ell-dimensional Cartan."""
    return 2 ** ((ell + 1) // 2) if level_nonzero else 1


class FockModule:
    """Induced module of the barred subalgebra plus z, with the lifted action.

    eta is the twist: values on the barred positive odd-root vectors, keyed by
    position in the positive-root list. The lift of the untwisted base algebra
    follows phi(s) = (1/2c) sum_j phi(bar[s, u^j]) phi(bar u_j).
    """

    def __init__(self, takiff: TakiffAlgebra, c: Scalar, eta: dict[int, Scalar] | None = None):
        if not c:
            raise ValueError("the level must be nonzero")
        self.takiff = takiff
        self.base = takiff.base
        self.rd = takiff.rd
        self.c = c
        two_c = Scalar(2) * c
        self._lift_factor = ONE / two_c
        self.dual = dual_bases(self.base, self.rd)
        self.positives = self.rd.positive_roots()
        npos = len(self.positives)

        self.poly_slots = [i for i, r in enumerate(self.positives) if r.parity == ODD]
        self.grass_slots = [i for i, r in enumerate(self.positives) if r.parity == EVEN]

        ell = len(self.dual.H)
        self.n_pairs = ell // 2
        self.has_w = bool(ell % 2)
        self.n_cliff = self.n_pairs + (1 if self.has_w else 0)

        H = self.dual.H
        self.a_vecs = [H[2 * k] + H[2 * k + 1].scale(I) for k in range(self.n_pairs)]
        self.b_vecs = [H[2 * k] - H[2 * k + 1].scale(I) for k in range(self.n_pairs)]
        self.w_vec = H[ell - 1] if self.has_w else None

        # the annihilator span must be isotropic for the cocycle form
        iso = [self.dual.E[i] for i in range(npos)] + self.a_vecs
        for x in iso:
            for y in iso:
                if self.base.form_pair(x, y):
                    raise ValueError("annihilator span is not isotropic")

        # One letter per slot, in the column order below: (odd, position,
        # creates, factor on lowering or None). Even letters are polynomial
        # exponents. Odd positions run over the grass letters, then the
        # Clifford letters, so one Koszul sign serves both. Ebar_i lowers with
        # (-1)^p(E_i) c, a_k with 2c, and w, the unpaired Clifford letter,
        # both creates and lowers, since w . w = c/2.
        ng = len(self.grass_slots)
        root_letter = {p: (False, k) for k, p in enumerate(self.poly_slots)}
        root_letter.update({p: (True, k) for k, p in enumerate(self.grass_slots)})
        self.slots: list[tuple[bool, int, bool, Scalar | None]] = (
            [root_letter[i] + (False, c * sign(r.parity)) for i, r in enumerate(self.positives)]
            + [root_letter[i] + (True, None) for i in range(npos)]
            + [(True, ng + k, False, two_c) for k in range(self.n_pairs)]
            + [(True, ng + k, True, None) for k in range(self.n_pairs)]
            + ([(True, ng + self.n_pairs, True, c / Scalar(2))] if self.has_w else [])
        )
        cols = (
            [self.dual.E[i] for i in range(npos)]
            + [self.dual.F[i] for i in range(npos)]
            + self.a_vecs
            + self.b_vecs
            + ([self.w_vec] if self.has_w else [])
        )
        self._inv_cols = invert(SparseMatrix.from_columns(cols, self.base.dim))

        self.eta = {i: ZERO for i in range(npos)}
        for k, v in (eta or {}).items():
            if not 0 <= k < npos:
                raise ValueError(f"twist key {k} is not a positive-root position")
            if v and self.positives[k].parity == EVEN:
                raise ValueError("the twist is supported on barred odd-root vectors only")
            self.eta[k] = v
        self.rho = weyl_vector(self.rd, self.c)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def twisted(self) -> bool:
        return any(self.eta.values())

    def vacuum(self) -> ModuleVector:
        idx = FockIndex(
            (0,) * len(self.poly_slots), (0,) * len(self.grass_slots), (0,) * self.n_cliff
        )
        return ModuleVector({idx: ONE})

    def basis_keys(self, max_degree: int) -> list[FockIndex]:
        """Monomials of degree <= max_degree, by degree then exponents."""
        out = []
        for grass in itertools.product((0, 1), repeat=len(self.grass_slots)):
            for cliff in itertools.product((0, 1), repeat=self.n_cliff):
                room = max_degree - sum(grass) - sum(cliff)
                if room < 0:
                    continue
                for poly in _exponents_up_to(len(self.poly_slots), room):
                    out.append(FockIndex(poly, grass, cliff))
        out.sort(key=lambda ix: (ix.degree, ix.poly, ix.grass, ix.cliff))
        return out

    def weight_of(self, idx: FockIndex) -> Weight:
        vals = list(self.rho.values)
        for k, m in enumerate(idx.poly):
            if m:
                cov = self.positives[self.poly_slots[k]].covector
                for t in range(len(vals)):
                    vals[t] = vals[t] - Scalar(m) * cov[t]
        for k, b in enumerate(idx.grass):
            if b:
                cov = self.positives[self.grass_slots[k]].covector
                for t in range(len(vals)):
                    vals[t] = vals[t] - cov[t]
        return Weight(tuple(vals), self.c)

    # -- adapted letter actions ----------------------------------------------

    def _apply_slot(self, t: int, coeff: Scalar, v: ModuleVector, out: dict) -> None:
        """Add coeff times the action of slot t on v into out."""
        odd, pos, creates, lower = self.slots[t]
        ng = len(self.grass_slots)
        for idx, s in v.items():
            if odd:
                word = idx.grass + idx.cliff
                if word[pos]:
                    if lower is None:
                        continue
                    s, bit = s * coeff * lower, 0
                elif creates:
                    s, bit = s * coeff, 1
                else:
                    continue
                if sum(word[:pos]) % 2:
                    s = -s
                word = word[:pos] + (bit,) + word[pos + 1 :]
                key = FockIndex(idx.poly, word[:ng], word[ng:])
            else:
                m = idx.poly[pos]
                if creates:
                    s, m = s * coeff, m + 1
                elif m:
                    s, m = s * coeff * lower * Scalar(m), m - 1
                else:
                    continue
                key = FockIndex(idx.poly[:pos] + (m,) + idx.poly[pos + 1 :], idx.grass, idx.cliff)
            add_term(out, key, s)

    def _adapted_coords(self, x: SparseVector) -> list[tuple[int, Scalar]]:
        acc: dict[int, Scalar] = {}
        for j, s in x.items():
            for t, v in self._inv_cols[j].items():
                add_term(acc, t, s * v)
        return sorted(acc.items())

    # -- module actions -------------------------------------------------------

    def apply_barred(self, x: SparseVector, v: ModuleVector) -> ModuleVector:
        """Action of x (x) theta for any x in the base algebra."""
        if not v or not x:
            return ModuleVector()
        out: dict[FockIndex, Scalar] = {}
        twist = ZERO
        for t, coeff in self._adapted_coords(x):
            self._apply_slot(t, coeff, v, out)
            # the first slots are the Ebar_i, keyed in eta by the same i
            e = self.eta.get(t)
            if e:
                twist = twist + coeff * e
        if twist:
            for idx, s in v.items():
                add_term(out, idx, s * twist)
        return ModuleVector(out)

    def apply_lift(self, s: SparseVector, v: ModuleVector) -> ModuleVector:
        """Lifted action of s (x) 1 via the dual-basis formula."""
        if not v or not s:
            return ModuleVector()
        out: dict[FockIndex, Scalar] = {}
        for j in range(self.dual.q):
            w = self.apply_barred(self.dual.lower[j], v)
            if not w:
                continue
            br = self.base.bracket(s, self.dual.upper[j])
            if not br:
                continue
            for idx, t in self.apply_barred(br, w).items():
                add_term(out, idx, t)
        return ModuleVector(out).scale(self._lift_factor)

    def apply_total_index(self, k: int, v: ModuleVector) -> ModuleVector:
        """Action of a basis element of the extended algebra by total index."""
        if k == self.takiff.z_index:
            return v.scale(self.c)
        i, th = self.takiff.split(k)
        e = SparseVector.unit(i)
        return self.apply_barred(e, v) if th else self.apply_lift(e, v)


def _exponents_up_to(n: int, total: int) -> Iterable[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _exponents_up_to(n - 1, total - first):
            yield (first,) + rest


def build_fock(takiff: TakiffAlgebra, c: Scalar, eta: dict[int, Scalar] | None = None) -> FockModule:
    return FockModule(takiff, c, eta)


def verify_relations(f: FockModule, max_degree: int) -> Report:
    """Defining commutators of the barred generators as operator identities.

    [Ebar_a, Fbar_a] = (-1)^p(E_a) c, [Hbar_i, Hbar_i] = c, everything else
    commutes; checked on every basis vector up to the degree bound.
    """
    rep = Report(f"barred generator relations: {f.base.name}, c = {f.c}")
    vectors = [ModuleVector({ix: ONE}) for ix in f.basis_keys(max_degree)]
    npos = len(f.positives)
    gens: list[tuple[str, int, SparseVector, int]] = []
    for i in range(npos):
        p = f.positives[i].parity
        gens.append(("E", i, f.dual.E[i], p ^ 1))
        gens.append(("F", i, f.dual.F[i], p ^ 1))
    for i, h in enumerate(f.dual.H):
        gens.append(("H", i, h, ODD))

    def expected(xg, yg) -> Scalar:
        (kx, ix, _, px), (ky, iy, _, _) = xg, yg
        if kx == "E" and ky == "F" and ix == iy:
            return sign(f.positives[ix].parity) * f.c
        if kx == "F" and ky == "E" and ix == iy:
            # the E-F value transported by super-anticommutativity is c for
            # both root parities
            return f.c
        if kx == "H" and ky == "H" and ix == iy:
            return f.c
        return ZERO

    def failures():
        for xg in gens:
            kx, ix, x, px = xg
            for yg in gens:
                ky, iy, y, py = yg
                want = expected(xg, yg)
                for v in vectors:
                    lhs = f.apply_barred(x, f.apply_barred(y, v)) - f.apply_barred(
                        y, f.apply_barred(x, v)
                    ).scale(sign(px * py))
                    if lhs != v.scale(want):
                        yield f"[{kx}bar[{ix}], {ky}bar[{iy}]] mismatch on {next(iter(v.terms))}"

    rep.first_failure("generator commutator table", failures())
    return rep


def verify_lift_identities(f: FockModule, max_degree: int) -> Report:
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


def verify_highest_weight(f: FockModule) -> Report:
    """Vacuum eigen-equations of the untwisted module."""
    if f.twisted:
        raise ValueError("highest-weight checks apply to the untwisted module")
    rep = Report(f"vacuum highest weight: {f.base.name}, c = {f.c}")
    vac = f.vacuum()

    rep.first_failure(
        "Cartan acts by the shifted weight",
        (
            f"H = {f.base.labels[h]} does not act by the Weyl-vector value"
            for pos, h in enumerate(f.rd.cartan)
            if f.apply_lift(SparseVector.unit(h), vac) != vac.scale(f.rho.values[pos])
        ),
    )
    rep.first_failure(
        "positive root vectors kill the vacuum",
        (
            f"positive root vector {i} does not kill the vacuum"
            for i in range(len(f.positives))
            if f.apply_lift(f.dual.E[i], vac)
        ),
    )

    zgot = f.apply_total_index(f.takiff.z_index, vac)
    rep.add("z acts by the level", zgot == vac.scale(f.c), None)
    return rep


def verify_whittaker_covariance(
    f: FockModule,
    chi_hat: dict[int, Scalar],
    max_degree: int = 2,
    nilp_bound: int = 8,
) -> Report:
    """(X - chi_hat(X)) kills the vacuum and is nilpotent on low degrees.

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
        for i in f.grass_slots:
            X = f.dual.E[i]
            val = chi_hat.get(i, ZERO)
            for ix in f.basis_keys(max_degree):
                y = ModuleVector({ix: ONE})
                steps = 0
                while y and steps < nilp_bound:
                    y = f.apply_lift(X, y) - y.scale(val)
                    steps += 1
                if y:
                    yield f"(X - value) not nilpotent within {nilp_bound} steps at {ix}"

    rep.first_failure("local nilpotency up to the bound", nilpotency_failures())
    return rep


@dataclass
class FinDimModule:
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
                    want = SparseMatrix(self.dim, self.dim)
                    for k, s in a.bracket_basis(i, j).items():
                        for (r, c2), v in self.actions[k].entries.items():
                            add = want.entries.get((r, c2), ZERO) + s * v
                            if add:
                                want.entries[(r, c2)] = add
                            else:
                                want.entries.pop((r, c2), None)
                    if lhs.entries != want.entries:
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
    from .superalg import gl_parity_sequence

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
        x = SparseVector.unit(i)
        out: dict = {}
        px = t.total.parity[k]
        for (l, ix), coeff in v.items():
            sgn = sign(px * self.L.parity[l])
            if th:
                moved = self.f.apply_barred(x, ModuleVector({ix: ONE}))
                for ix2, s in moved.items():
                    add_term(out, (l, ix2), coeff * sgn * s)
            else:
                col = self.L.actions[i].column(l)
                for l2, s in col.items():
                    add_term(out, (l2, ix), coeff * s)
                moved = self.f.apply_lift(x, ModuleVector({ix: ONE}))
                for ix2, s in moved.items():
                    add_term(out, (l, ix2), coeff * sgn * s)
        return ModuleVector(out)

    def weight_of_key(self, key, l_weights: list[Weight]) -> Weight:
        l, ix = key
        return l_weights[l] + self.f.weight_of(ix)


def tensor_with_findim(L: FinDimModule, f: FockModule) -> TensorModule:
    return TensorModule(L, f)


def cyclicity_spot_check(
    tm: TensorModule,
    seed: int = 0,
    samples: int = 20,
    sample_degree: int = 2,
    word_length: int = 3,
) -> Report:
    """Randomized cyclicity probe: words of bounded length reach the vacuum level.

    For each random nonzero vector of bounded degree, the span of its images
    under operator words of length <= word_length must contain a nonzero
    vector supported on degree-zero module keys.
    """
    from .exactlin import EchelonSpan

    rng = random.Random(seed)
    rep = Report(f"cyclicity spot check: {tm.f.base.name}, c = {tm.c}")
    rep.seed = seed
    keys = tm.basis_keys(sample_degree)
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
        for _ in range(word_length):
            new_frontier = []
            for w in frontier:
                for op in ops:
                    img = tm.apply_total_index(op, w)
                    if img and span.add(img):
                        new_frontier.append(img)
            frontier = new_frontier
            if not frontier:
                break

        # the span misses the vacuum level exactly when its rows stay
        # independent with the degree-zero keys dropped
        above = EchelonSpan()
        if all(
            above.add(ModuleVector({k: s for k, s in row.items() if k[1].degree}))
            for _, row, _ in span.rows
        ):
            failures += 1
    rep.add(
        f"all {samples} sampled vectors reach the vacuum level",
        failures == 0,
        None if failures == 0 else f"{failures} samples failed",
    )
    return rep

"""Fock realizations of the barred Heisenberg-Clifford subalgebra and lifts.

A basis vector is a monomial: polynomial variables for the barred negative
odd-root vectors, Grassmann variables for the barred negative even-root
vectors, and a Clifford word over the creation half of the barred Cartan.
All operator actions are exact and lazy; nothing is materialized as a matrix.

Sign conventions are fixed by the canonical word order
    poly letters (even) . grass letters . b_1 ... b_K . w
applied to the vacuum, with Koszul signs counted over the odd letters only.
A monomial's key is the tuple of its letter exponents in that order.
"""

from __future__ import annotations

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
from .superalg import EVEN, ODD, RootDatum, covector_text, weyl_vector
from .takiff import TakiffAlgebra, dual_bases


class ModuleVector(SparseVector):
    """Finite linear combination of module basis keys with nonzero scalars."""

    __slots__ = ()
    # the benchmark tracer (perfbench/tracing.py, `_barred`) and tests read
    # `v.terms`, so the alias must stay
    terms = SparseVector.entries


def clifford_module_dim(ell: int, level_nonzero: bool) -> int:
    """Dimension of the simple Clifford factor over an ell-dimensional Cartan."""
    return 2 ** ((ell + 1) // 2) if level_nonzero else 1


def _check_barred_relations(slots: list, cols: list[SparseVector], takiff: TakiffAlgebra, c: Scalar) -> None:
    """Raise unless every ordered pair of slots t, u supercommutes to c times the
    z-coefficient of [col_t (x) theta, col_u (x) theta] in the extension's table.

    Two slots supercommute to a scalar kappa. On a letter x^m a lowering slot with factor
    g and the creating slot give g(m+1) - g m = g (an anticommutator on an odd letter,
    where m <= 1), and -(-1)^(p p') g in reverse; w creates and lowers with w . w = c/2,
    so {w, w} = c; other pairs give 0. A twist adds only scalars, so by bilinearity
    every barred relation holds on every vector exactly when this table does."""
    n, z = takiff.n1, takiff.z_index
    cz: dict[int, dict[int, Scalar]] = {}  # c times the z-coefficient of [e_i (x) theta, e_j (x) theta]
    for (i, j), v in takiff.total.table.items():
        if n <= i < z and n <= j < z and z in v.entries:
            cz.setdefault(i - n, {})[j - n] = c * v.entries[z]
    for t, (odd, pos, creates, lower) in enumerate(slots):
        row: dict[int, Scalar] = {}
        for i, a in cols[t].items():
            for j, s in cz.get(i, {}).items():
                add_term(row, j, a * s)
        for u, (_, pos_u, creates_u, lower_u) in enumerate(slots):
            if pos_u != pos and row.keys().isdisjoint(cols[u].entries):
                continue  # kappa and the z-coefficient are both 0
            kappa = lower if pos_u == pos and creates_u and lower else ZERO
            if pos_u == pos and creates and lower_u:
                kappa = kappa + (lower_u if odd else -lower_u)
            got = sum((row[j] * b for j, b in cols[u].items() if j in row), ZERO)
            if got != kappa:
                raise ValueError(
                    f"slots {t} and {u} supercommute to {kappa}, but c times their z-coefficient is {got}"
                )


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
        self._first_odd = len(self.poly_slots)  # key position of the first odd letter

        ell = len(self.dual.H)
        self.n_pairs = ell // 2
        self.has_w = bool(ell % 2)

        H = self.dual.H
        self.a_vecs = [H[2 * k] + H[2 * k + 1].scale(I) for k in range(self.n_pairs)]
        self.b_vecs = [H[2 * k] - H[2 * k + 1].scale(I) for k in range(self.n_pairs)]
        self.w_vec = H[ell - 1] if self.has_w else None

        # The letter layout in key order, (kind, label) per letter: a root
        # letter is labelled by its root vector, a Clifford letter b1... or w.
        roots = [("poly", p) for p in self.poly_slots] + [("grass", p) for p in self.grass_slots]
        self.letters = [(kind, self.base.labels[self.positives[p].space[0]]) for kind, p in roots]
        self.letters += [("cliff", f"b{k + 1}") for k in range(self.n_pairs)]
        self.letters += [("cliff", "w")] if self.has_w else []

        # One letter per slot, in the column order below: (odd, position in
        # the key, creates, factor on lowering or None). Ebar_i lowers with
        # (-1)^p(E_i) c, a_k with 2c, and w, the unpaired Clifford letter,
        # both creates and lowers, since w . w = c/2.
        root_letter = {p: (kind == "grass", n) for n, (kind, p) in enumerate(roots)}
        self.slots: list[tuple[bool, int, bool, Scalar | None]] = (
            [root_letter[i] + (False, c * sign(r.parity)) for i, r in enumerate(self.positives)]
            + [root_letter[i] + (True, None) for i in range(npos)]
            + [(True, npos + k, False, two_c) for k in range(self.n_pairs)]
            + [(True, npos + k, True, None) for k in range(self.n_pairs)]
            + ([(True, npos + self.n_pairs, True, c / Scalar(2))] if self.has_w else [])
        )
        cols = self.dual.E + self.dual.F + self.a_vecs + self.b_vecs + ([self.w_vec] if self.has_w else [])
        _check_barred_relations(self.slots, cols, takiff, c)
        self._inv_cols = invert(SparseMatrix.from_columns(cols, self.base.dim))

        self.eta = {i: ZERO for i in range(npos)}
        for k, v in (eta or {}).items():
            if not 0 <= k < npos:
                raise ValueError(f"twist key {k} is not a positive-root position")
            if v and self.positives[k].parity == EVEN:
                raise ValueError("the twist is supported on barred odd-root vectors only")
            self.eta[k] = v
        self.rho = weyl_vector(self.rd, self.c)
        # basis index i -> phi(e_i) compiled by _lift_table on first use
        self._lift_tables: dict[int, tuple[list, list, Scalar]] = {}

    # -- bookkeeping ---------------------------------------------------------

    @property
    def twisted(self) -> bool:
        return any(self.eta.values())

    def vacuum(self) -> ModuleVector:
        return ModuleVector({(0,) * len(self.letters): ONE})

    def basis_keys(self, max_degree: int) -> list[tuple[int, ...]]:
        """Monomials of degree <= max_degree, by degree then exponents."""
        # one unit of degree per letter; the Grassmann and Clifford letters are odd
        odd = [kind != "poly" for kind, _ in self.letters]
        keys = enumerate_multiindices([1] * len(odd), odd, max_degree)
        return sorted(keys, key=lambda key: (sum(key), key))

    # -- adapted letter actions ----------------------------------------------

    def _step(self, t: int, key: tuple) -> tuple[tuple, Scalar | None, int] | None:
        """Slot t on the monomial key: (new key, factor or None for 1, odd sign), or None if it kills key."""
        odd, pos, creates, lower = self.slots[t]
        m = key[pos]
        if creates and not (odd and m):
            factor, m = None, m + 1
        elif m and lower is not None:
            factor = lower if m == 1 else lower * Scalar(m)
            m -= 1
        else:
            return None
        # Koszul sign: the odd exponents before pos (none before an even letter)
        return key[:pos] + (m,) + key[pos + 1 :], factor, sum(key[self._first_odd : pos]) % 2

    def _apply_slots(self, terms: list[tuple[int, Scalar]], key: tuple, a: Scalar, odd: int, out: dict) -> None:
        """Add a times each (slot, coeff) term's action on the monomial key into out; odd is a's Koszul sign."""
        for t, coeff in terms:
            hit = self._step(t, key)
            if hit:
                new, factor, odd_t = hit
                d = a * coeff if factor is None else a * coeff * factor
                add_term(out, new, -d if odd ^ odd_t else d)

    def _adapted(self, x: SparseVector) -> tuple[list[tuple[int, Scalar]], Scalar]:
        """Slot coordinates of x (x) theta, and the scalar its twist adds."""
        acc: dict[int, Scalar] = {}
        for j, s in x.items():
            for t, v in self._inv_cols[j].items():
                add_term(acc, t, s * v)
        twist = ZERO
        for t, coeff in acc.items():
            # the first slots are the Ebar_i, keyed in eta by the same i
            e = self.eta.get(t)
            if e:
                twist = twist + coeff * e
        return sorted(acc.items()), twist

    def _lift_table(self, i: int) -> tuple[list, list, Scalar]:
        """phi(e_i) over the slots: [(inner slot, [(outer slot, coeff)])],
        [(slot, coeff)] and a constant, with 1/2c folded into each.

        phi(e_i) = (1/2c) sum_j phi(bar[e_i, u^j]) phi(bar u_j); each factor is
        sum_t x_t slot_t + twist(x), so the product is quadratic in the slots
        (inner slot from u_j, outer from the bracket), linear through one
        twist, and constant through both.
        """
        table = self._lift_tables.get(i)
        if table is not None:
            return table
        quad: dict[int, dict[int, Scalar]] = {}
        linear: dict[int, Scalar] = {}
        const = ZERO
        f = self._lift_factor
        e = SparseVector.unit(i)
        for upper, lower in zip(self.dual.upper, self.dual.lower):
            br = self.base.bracket(e, upper)
            if not br:
                continue
            outer, outer_twist = self._adapted(br)
            inner, inner_twist = self._adapted(lower)
            for t2, s2 in inner:
                row = quad.setdefault(t2, {})
                fs2 = f * s2
                for t1, s1 in outer:
                    add_term(row, t1, fs2 * s1)
                if outer_twist:
                    add_term(linear, t2, fs2 * outer_twist)
            if inner_twist:
                ft = f * inner_twist
                for t1, s1 in outer:
                    add_term(linear, t1, ft * s1)
                if outer_twist:
                    const = const + ft * outer_twist
        table = (
            [(t2, sorted(row.items())) for t2, row in sorted(quad.items()) if row],
            sorted(linear.items()),
            const,
        )
        self._lift_tables[i] = table
        return table

    # -- module actions -------------------------------------------------------

    def apply_barred(self, x: SparseVector, v: ModuleVector) -> ModuleVector:
        """Action of x (x) theta for any x in the base algebra."""
        return self._apply_adapted(self._adapted(x), v)

    def _apply_adapted(self, adapted: tuple[list, Scalar], v: ModuleVector) -> ModuleVector:
        """Action on v of the barred element whose `_adapted` slot coordinates and twist are given."""
        coords, twist = adapted
        out: dict[tuple, Scalar] = {}
        for key, a in v.items():
            self._apply_slots(coords, key, a, 0, out)
            if twist:
                add_term(out, key, a * twist)
        return ModuleVector._of(out)

    def apply_lift(self, s: SparseVector, v: ModuleVector) -> ModuleVector:
        """Lifted action of s (x) 1, by linearity over s from the lift tables, one key step at a time."""
        out: dict[tuple, Scalar] = {}
        for i, si in s.items():
            quad, linear, const = self._lift_table(i)
            for key, a in v.items():
                a = a if si == ONE else a * si
                for t2, outer in quad:
                    hit = self._step(t2, key)
                    if hit:
                        inner, factor, odd = hit
                        self._apply_slots(outer, inner, a if factor is None else a * factor, odd, out)
                self._apply_slots(linear, key, a, 0, out)
                if const:
                    add_term(out, key, a * const)
        return ModuleVector._of(out)

    def apply_total_index(self, k: int, v: ModuleVector) -> ModuleVector:
        """Action of a basis element of the extended algebra by total index."""
        if k == self.takiff.z_index:
            return v.scale(self.c)
        i, th = self.takiff.split(k)
        e = SparseVector.unit(i)
        return self.apply_barred(e, v) if th else self.apply_lift(e, v)


def check_twist_support(rd: RootDatum, twisted: list[int]) -> None:
    """Raise unless every twisted positive-root position holds a simple root, as `hat_eta` needs."""
    outside = [covector_text(rd.positive_roots()[k].covector) for k in twisted if rd.positive[k] not in rd.simple]
    if outside:
        raise ValueError(f"twist supported outside the simple odd roots: {', '.join(outside)}")


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


def build_fock(takiff: TakiffAlgebra, c: Scalar, eta: dict[int, Scalar] | None = None) -> FockModule:
    return FockModule(takiff, c, eta)


def verify_lift_identities(f: FockModule, max_degree: int) -> Report:
    """The two lift identities, exactly, on every basis vector up to degree.

    phi is linear, so each phi(e_i) acts on each monomial once per call (through f.apply_lift)
    and every other lift is summed from those actions; each ordered product phi(e_a) phi(e_b) v
    is formed once, and the slot coordinates of a dual once per call, of [e_s, u_k] once per (s, k)."""
    rep = Report(f"lift identities: {f.base.name}, c = {f.c}, degree <= {max_degree}")
    vectors = [ModuleVector({ix: ONE}) for ix in f.basis_keys(max_degree)]
    base = f.base
    units = [SparseVector.unit(i) for i in range(base.dim)]
    count = 0
    lifted: dict[tuple[int, tuple], ModuleVector] = {}

    def lift(s: SparseVector, v: ModuleVector) -> ModuleVector:
        out: dict[tuple, Scalar] = {}
        for i, si in s.items():
            for key, a in v.items():
                phi = lifted.get((i, key))
                if phi is None:
                    phi = lifted[i, key] = f.apply_lift(units[i], ModuleVector({key: ONE}))
                k = a if si == ONE else si * a
                for idx, b in phi.items():
                    add_term(out, idx, k * b)
        return ModuleVector._of(out)

    lifts = [[lift(s, v) for v in vectors] for s in units]

    def failures(others, sides, prepare, act, witness):
        # [phi(s), y] = act([s, y]) for every basis s and every listed (y, parity); sides(s, k)
        # lists (phi(s) y v, y phi(s) v) per vector, and act(prepare(x), v) is x's action on v
        nonlocal count
        for si in range(base.dim):
            for k, (y, py) in enumerate(others):
                br = prepare(base.bracket(units[si], y))
                for v, (sy, ys) in zip(vectors, sides(si, k)):
                    count += 1
                    if (sy + ys if base.parity[si] and py else sy - ys) != act(br, v):
                        yield witness(base.labels[si], k)

    duals = [(u, (p + 1) % 2) for u, p in zip(f.dual.lower, f.dual.upper_parity)]
    acted = [[f.apply_barred(u, v) for v in vectors] for u, _ in duals]
    adapted = [f._adapted(u) for u, _ in duals]
    rep.first_failure(
        "commutator with barred duals",
        failures(
            duals,
            lambda si, k: [
                (lift(units[si], uv), f._apply_adapted(adapted[k], sv)) for uv, sv in zip(acted[k], lifts[si])
            ],
            f._adapted,
            f._apply_adapted,
            lambda s, k: f"[phi({s}), phi(bar u_{k})] != phi(bar[s,u_{k}])",
        ),
    )

    # phi(e_a) phi(e_b) v per vector, formed at the first of (a, b) and (b, a) and dropped at the second
    products: dict[tuple[int, int], list[ModuleVector]] = {}

    def product(a: int, b: int) -> list[ModuleVector]:
        p = products.pop((a, b), None)
        if p is None:
            p = products[a, b] = [lift(units[a], w) for w in lifts[b]]
        return p

    rep.first_failure(
        "commutator of two lifts",
        failures(
            list(zip(units, base.parity)),
            lambda si, k: list(zip(product(si, k), product(k, si))),
            lambda x: x,
            lift,
            lambda s, k: f"[phi({s}), phi({base.labels[k]})] != phi([s,t])",
        ),
    )
    rep.data["identities_checked"] = count
    return rep


def verify_highest_weight(f: FockModule) -> Report:
    """Vacuum eigen-equations of the untwisted module; z acts by c on every vector by construction."""
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
    return rep


def verify_whittaker_covariance(f: FockModule, chi_hat: dict[int, Scalar]) -> Report:
    """(X - chi_hat(X)) kills the vacuum and acts locally nilpotently, at every degree.

    chi_hat holds the expected eigenvalues on the unbarred even positive root vectors, keyed
    by position in the positive-root list. Ebar_a's lowering slot has height ht(a), the sum
    of a's simple-root coordinates, its creating slot -ht(a) and a Clifford slot 0; so every
    monomial has height <= 0, and a slot moves it by the slot's own height. If every quadratic
    and linear term of phi(X) moves height by at least 1, the vacuum equation makes the table's
    constant chi_hat(X), and X - chi_hat(X) kills a monomial of height -h within h + 1 steps.
    The test is sufficient, not necessary: its witness names a term moving height by under 1.
    """
    check_twist_support(f.rd, [i for i in f.poly_slots if f.eta.get(i)])
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

    ht = [sum(o) for o in f.rd.positive_offsets()]
    height = ht + [-h for h in ht] + [0] * (len(f.slots) - 2 * len(ht))

    def low_terms():
        for i in f.grass_slots:
            quad, linear, _ = f._lift_table(f.positives[i].space[0])
            for term in [(t2, t1) for t2, outer in quad for t1, _ in outer] + [(t,) for t, _ in linear]:
                shift = sum(height[t] for t in term)
                if shift < 1:
                    slots = ", ".join(map(str, term))
                    yield f"term ({slots}) of even positive root {i} shifts height by {shift}"

    rep.first_failure("local nilpotency at every degree", low_terms())
    return rep

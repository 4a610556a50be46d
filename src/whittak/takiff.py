"""Central extension of s (x) Lambda(theta) by a one-dimensional center.

The bracket is the generator form
    [s1 (x) 1, s2 (x) f]      = [s1,s2] (x) f
    [s1 (x) th, s2 (x) th]    = (-1)^p(s2) (s1|s2) z
with the remaining case [s1 (x) th, s2 (x) 1] = (-1)^p(s2) [s1,s2] (x) th
forced by super-anticommutativity; this reproduces the twisted one-line
definition with the (-1)^{p(f1)p(s2)} factor. The odd invariant form and the
derivation cocycle live here too, as do the normalized dual bases used by the
Fock construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import ONE, ZERO, Scalar, SparseMatrix, SparseVector, add_term, rank, sign
from .reports import Report
from .superalg import EVEN, ODD, RootDatum, SuperAlgebra, verify_algebra


@dataclass
class HatDecomposition:
    n_hat: tuple[int, ...]
    h_hat: tuple[int, ...]
    n_minus_hat: tuple[int, ...]


class TakiffAlgebra:
    """Base algebra, its central extension, and the index layout between them."""

    def __init__(self, base: SuperAlgebra, rd: RootDatum, total: SuperAlgebra, z_index: int):
        self.base = base
        self.rd = rd
        self.total = total
        self.z_index = z_index
        self.n1 = base.dim

    def one(self, i: int) -> int:
        return i

    def theta(self, i: int) -> int:
        return self.n1 + i

    def split(self, k: int) -> tuple[int, int]:
        """Total index -> (base index, theta exponent); z is not splittable."""
        if k == self.z_index:
            raise ValueError("z has no base component")
        return (k, 0) if k < self.n1 else (k - self.n1, 1)

    def embed(self, v: SparseVector, theta_power: int = 0) -> SparseVector:
        off = self.n1 if theta_power else 0
        return SparseVector({off + i: s for i, s in v.items()})

    def __repr__(self):
        return f"TakiffAlgebra({self.base.name}, dim={self.total.dim})"


def build_takiff(s: SuperAlgebra, rd: RootDatum) -> tuple[TakiffAlgebra, HatDecomposition]:
    """Extend s (x) Lambda(theta) by the derivation cocycle's center."""
    if s.form is None:
        raise ValueError(f"{s.name} has no bilinear form; the extension needs one")
    if rank(s.form) != s.dim:
        raise ValueError(f"the form of {s.name} is degenerate")
    n = s.dim
    z = 2 * n
    labels = list(s.labels) + [f"{l}.th" for l in s.labels] + ["z"]
    parity = list(s.parity) + [p ^ 1 for p in s.parity] + [EVEN]

    table: dict[tuple[int, int], SparseVector] = {}
    for (i, j), v in s.table.items():
        table[(i, j)] = v
        table[(i, n + j)] = SparseVector({n + k: c for k, c in v.items()})
        sv = v.scale(sign(s.parity[j]))
        if sv:
            table[(n + i, j)] = SparseVector({n + k: c for k, c in sv.items()})
    for i in range(n):
        for j in range(n):
            f = s.form.get(i, j)
            if f:
                table[(n + i, n + j)] = SparseVector({z: sign(s.parity[j]) * f})

    total = SuperAlgebra(f"takiff({s.name})", labels, parity, table)
    t = TakiffAlgebra(s, rd, total, z)

    pos_spaces = [x for r in rd.positive_roots() for x in r.space]
    neg_cov = {tuple(-c for c in rd.roots[i].covector) for i in rd.positive}
    neg_spaces = [x for r in rd.roots if r.covector in neg_cov for x in r.space]
    n_hat = tuple(sorted([x for x in pos_spaces] + [n + x for x in pos_spaces]))
    n_minus = tuple(sorted([x for x in neg_spaces] + [n + x for x in neg_spaces]))
    h_hat = tuple(sorted([h for h in rd.cartan] + [n + h for h in rd.cartan] + [z]))
    return t, HatDecomposition(n_hat, h_hat, n_minus)


def theta_derivative(t: TakiffAlgebra, x: SparseVector) -> SparseVector:
    """d/dtheta on the theta-part layout (z must not appear)."""
    out: dict[int, Scalar] = {}
    for k, s in x.items():
        if k == t.z_index:
            raise ValueError("z has no theta derivative")
        if k >= t.n1:
            add_term(out, k - t.n1, s)
    return SparseVector(out)


def odd_form_prime(t: TakiffAlgebra, x: SparseVector, y: SparseVector) -> Scalar:
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


def cocycle_alpha_d(t: TakiffAlgebra, x: SparseVector, y: SparseVector) -> Scalar:
    """alpha(x, y) = (dx/dtheta | y)'; nonzero only when both carry theta."""
    return odd_form_prime(t, theta_derivative(t, x), y)


def verify_takiff(t: TakiffAlgebra) -> Report:
    """Structural checks of the extension against its base algebra."""
    rep = Report(f"takiff checks: {t.total.name}")
    rep.merge(verify_algebra(t.total))

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
                lhs = cocycle_alpha_d(t, x, y)
                rhs = -sign(px * tot.parity[j]) * cocycle_alpha_d(t, y, x)
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
                    if odd_form_prime(t, bxy_strip, wv) != odd_form_prime(t, x, byw_strip):
                        yield f"odd form invariance fails at ({lab[i]},{lab[j]},{lab[w]})"

    rep.first_failure("odd form invariance", invariance_failures())
    return rep


def verify_hat_closure(t: TakiffAlgebra, hat: HatDecomposition) -> Report:
    rep = Report("triangular decomposition closure")
    nset = set(hat.n_hat)
    parts = sorted(set(hat.n_hat) | set(hat.h_hat) | set(hat.n_minus_hat))
    rep.add("partition covers the basis", parts == list(range(t.total.dim)), None)
    rep.add("z sits in the Cartan part", t.z_index in set(hat.h_hat), None)

    def leaving(left):
        for i in left:
            for j in hat.n_hat:
                if any(k not in nset for k in t.total.bracket_basis(i, j).entries):
                    yield f"[{t.total.labels[i]},{t.total.labels[j]}] leaves the radical"

    rep.first_failure("radical is bracket-closed", leaving(hat.n_hat))
    rep.first_failure("cartan part normalizes the radical", leaving(hat.h_hat))
    return rep


@dataclass
class DualBasis:
    """Root vectors with (E_a|F_a) = 1 and an orthonormal Cartan basis.

    upper[k] and lower[k] are dual under the form: (upper[i]|lower[j]) = d_ij.
    """

    E: list[SparseVector]
    F: list[SparseVector]
    H: list[SparseVector]
    upper: list[SparseVector]
    lower: list[SparseVector]
    upper_parity: list[int]

    @property
    def q(self) -> int:
        return len(self.upper)


def dual_bases(s: SuperAlgebra, rd: RootDatum) -> DualBasis:
    """Normalized dual bases of s with respect to its invariant form."""
    if s.form is None:
        raise ValueError("dual bases need the bilinear form")
    Es: list[SparseVector] = []
    Fs: list[SparseVector] = []
    for ridx in rd.positive:
        r = rd.roots[ridx]
        if len(r.space) != 1:
            raise ValueError("dual bases require one-dimensional root spaces")
        e = SparseVector.unit(r.space[0])
        neg = rd.root_index(tuple(-c for c in r.covector))
        if neg is None:
            raise ValueError(f"missing opposite root for {r.covector}")
        f0 = SparseVector.unit(rd.roots[neg].space[0])
        pairing = s.form_pair(e, f0)
        if not pairing:
            raise ValueError(f"root vectors pair to zero for root {r.covector}")
        Es.append(e)
        Fs.append(f0.scale(ONE / pairing))

    Hs: list[SparseVector] = []
    for h in rd.cartan:
        v = SparseVector.unit(h)
        for w in Hs:
            v = v - w.scale(s.form_pair(v, w))
        norm = s.form_pair(v, v)
        root = norm.sqrt()
        if root is None or not root:
            raise ValueError(
                f"cannot orthonormalize Cartan element {s.labels[h]} over Q(i): (v|v) = {norm}"
            )
        Hs.append(v.scale(ONE / root))

    upper = Es + Fs + Hs
    lower = (
        Fs
        + [Es[k].scale(sign(s.parity_of(Es[k]))) for k in range(len(Es))]
        + Hs
    )
    parities = [s.parity_of(v) for v in upper]
    db = DualBasis(Es, Fs, Hs, upper, lower, parities)
    for i in range(db.q):
        for j in range(db.q):
            want = ONE if i == j else ZERO
            got = s.form_pair(db.upper[i], db.lower[j])
            if got != want:
                raise ValueError(f"dual basis pairing ({i},{j}) = {got}, expected {want}")
    return db

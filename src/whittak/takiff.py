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

from typing import NamedTuple

from .exactlin import ONE, Scalar, SparseMatrix, SparseVector, add_term, rank, sign
from .reports import Report
from .superalg import EVEN, RootDatum, SuperAlgebra, covector_text, form_invariance_failures, verify_algebra


class HatDecomposition(NamedTuple):
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

    # the base table and form hold no zeros, so neither does any entry built from them
    table: dict[tuple[int, int], SparseVector] = {}
    for (i, j), v in s.table.items():
        table[(i, j)] = v
        table[(i, n + j)] = SparseVector._of({n + k: c for k, c in v.items()})
        odd = s.parity[j] % 2
        table[(n + i, j)] = SparseVector._of({n + k: -c if odd else c for k, c in v.items()})
    for (i, j), f in sorted(s.form.entries.items()):
        table[(n + i, n + j)] = SparseVector._of({z: -f if s.parity[j] % 2 else f})

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


def odd_form(t: TakiffAlgebra) -> SparseMatrix:
    """The odd invariant form on s (x) Lambda(theta), on the 2n basis vectors before z.

    (b_i (x) 1 | b_j (x) th)' = (b_i|b_j) and (b_i (x) th | b_j (x) 1)' =
    (-1)^p(b_j) (b_i|b_j); same-layer pairs vanish. It is read from the base
    form on every call.
    """
    n = t.n1
    entries: dict[tuple[int, int], Scalar] = {}
    for (i, j), f in t.base.form.entries.items():
        entries[(i, n + j)] = f
        entries[(n + i, j)] = -f if t.base.parity[j] else f
    return SparseMatrix(2 * n, 2 * n, entries)


def odd_form_prime(t: TakiffAlgebra, x: SparseVector, y: SparseVector) -> Scalar:
    """(x|y)' for x and y off z."""
    if t.z_index in x.entries or t.z_index in y.entries:
        raise ValueError("z is not in the domain of the odd form")
    return odd_form(t).pair(x, y)


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
        # a pair whose base bracket, form entry and extension brackets are all zero holds
        held = {(i % n, j % n) for i, j in tot.table if max(i, j) < 2 * n}
        held |= t.base.table.keys() | t.base.form.entries.keys()
        for i, j in sorted(k for k in held if max(k) < n):
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

    # alpha(b_i.th, b_j.th) = (b_i|b_j), and alpha vanishes on every other
    # basis pair, so only the pairs of nonzero base form entries can fail
    form = t.base.form

    def skew_failures():
        for i, j in sorted({(min(i, j), max(i, j)) for i, j in form.entries}):
            rhs = -sign(tot.parity[n + i] * tot.parity[n + j]) * form.get(j, i)
            if form.get(i, j) != rhs:
                yield f"cocycle skewsymmetry fails at ({lab[n + i]},{lab[n + j]})"

    rep.first_failure("cocycle super-skewsymmetry", skew_failures())

    rep.first_failure(
        "odd form invariance",
        form_invariance_failures(tot.table, odd_form(t).entries, 2 * n, lab, "odd form invariance"),
    )
    return rep


def verify_hat_closure(t: TakiffAlgebra, hat: HatDecomposition) -> Report:
    rep = Report("triangular decomposition closure")
    parts = (*hat.n_hat, *hat.h_hat, *hat.n_minus_hat)
    nset, covered, lab = set(hat.n_hat), set(parts), t.total.labels
    rep.first_failure(
        "partition covers the basis",
        [f"{lab[k]} is in no part" for k in range(t.total.dim) if k not in covered]
        + [f"index {k!r} is not a basis index" for k in parts if k not in range(t.total.dim)],
    )
    rep.add("z sits in the Cartan part", None if t.z_index in hat.h_hat else f"{lab[t.z_index]} is not in h_hat")

    def leaving(left):
        for i in left:
            for j in hat.n_hat:
                if any(k not in nset for k in t.total.bracket_basis(i, j).entries):
                    yield f"[{lab[i]},{lab[j]}] leaves the radical"

    rep.first_failure("radical is bracket-closed", leaving(hat.n_hat))
    rep.first_failure("cartan part normalizes the radical", leaving(hat.h_hat))
    return rep


class DualBasis(NamedTuple):
    """Root vectors with (E_a|F_a) = 1 and an orthonormal Cartan basis.

    upper[k] and lower[k] are dual under the form: (upper[i]|lower[j]) = d_ij.
    """

    E: list[SparseVector]
    F: list[SparseVector]
    H: list[SparseVector]
    upper: list[SparseVector]
    lower: list[SparseVector]
    upper_parity: list[int]


def dual_bases(s: SuperAlgebra, rd: RootDatum) -> DualBasis:
    """Normalized dual bases of s with respect to its invariant form. The Fock module, the one
    caller, checks the pairing (upper[i]|lower[j]) = d_ij through its barred relations."""
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
            raise ValueError(f"missing opposite root for {covector_text(r.covector)}")
        f0 = SparseVector.unit(rd.roots[neg].space[0])
        pairing = s.form_pair(e, f0)
        if not pairing:
            raise ValueError(f"root vectors pair to zero for root {covector_text(r.covector)}")
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
    return DualBasis(Es, Fs, Hs, upper, lower, [s.parity_of(v) for v in upper])

"""Finite-dimensional Lie superalgebras with exact structure constants.

Builders for gl(m|n) with supertrace form and root data, structural
verification (grading, super Jacobi, form axioms), span closures, ad-h
gradings and centralizers.
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
    _rref,
    add_term,
    invert,
    packed,
    rank,
    sign,
)
from .reports import Report

EVEN, ODD = 0, 1


def is_index(k, bound: int) -> bool:
    """The rule for an index read from a file: an int, not a bool, in 0..bound-1."""
    return type(k) is int and 0 <= k < bound


class SuperAlgebra:
    """Labelled basis, parity vector, sparse bracket table, optional form."""

    def __init__(self, name, labels, parity, table, form=None):
        self.name = name
        self.labels = list(labels)
        self.parity = list(parity)
        self.table = {k: v for k, v in table.items() if v}
        self.form = form
        if len(self.labels) != len(self.parity):
            raise ValueError("labels and parity lengths differ")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def bracket_basis(self, i: int, j: int) -> SparseVector:
        return self.table.get((i, j), _EMPTY)

    def bracket(self, x: SparseVector, y: SparseVector) -> SparseVector:
        out: dict[int, Scalar] = {}
        for i, a in x.items():
            for j, b in y.items():
                t = self.table.get((i, j))
                if t is None:
                    continue
                coeff = a * b
                for k, s in t.items():
                    add_term(out, k, coeff * s)
        return SparseVector._of(out)

    def form_pair(self, x: SparseVector, y: SparseVector) -> Scalar:
        if self.form is None:
            raise ValueError(f"{self.name} carries no bilinear form")
        return self.form.pair(x, y)

    def parity_of(self, v: SparseVector) -> int:
        """Parity of a homogeneous vector; raises on mixed parity."""
        ps = {self.parity[i] for i in v.entries}
        if len(ps) > 1:
            raise ValueError("vector is not parity-homogeneous")
        return ps.pop() if ps else EVEN

    def ad_matrix(self, x: SparseVector) -> SparseMatrix:
        entries: dict[tuple[int, int], Scalar] = {}
        for j in range(self.dim):
            img = self.bracket(x, SparseVector.unit(j))
            for i, s in img.items():
                entries[(i, j)] = s
        return SparseMatrix(self.dim, self.dim, entries)

    def __repr__(self):
        return f"SuperAlgebra({self.name}, dim={self.dim})"


_EMPTY = SparseVector()


class Root(NamedTuple):
    """A root as a covector on the Cartan basis plus its root space."""

    covector: tuple[Scalar, ...]
    space: tuple[int, ...]
    parity: int


class RootDatum(NamedTuple):
    cartan: tuple[int, ...]
    roots: tuple[Root, ...]
    positive: tuple[int, ...]
    simple: tuple[int, ...]

    def positive_roots(self):
        return [self.roots[i] for i in self.positive]

    def simple_roots(self):
        return [self.roots[i] for i in self.simple]

    def root_index(self, covector: tuple[Scalar, ...]) -> int | None:
        for i, r in enumerate(self.roots):
            if r.covector == covector:
                return i
        return None

    def positive_offsets(self) -> list[tuple[int, ...]]:
        """Each positive root's nonnegative integer coordinates over the simples, read from one
        reduced echelon form of [simple roots | positive roots]; raises if the simples are linearly
        dependent, so that no coordinates are unique, or if a root has none."""
        ns, pos = len(self.simple), self.positive_roots()
        cols = self.simple_roots() + pos
        rows = ({c: r.covector[t] for c, r in enumerate(cols) if r.covector[t]} for t in range(len(self.cartan)))
        pivots, out = _rref(rows), []
        if any(p not in pivots for p in range(ns)):
            raise ValueError("the simple roots are linearly dependent")
        for j, r in enumerate(pos, ns):
            # a row zero on the simples but not at column j makes root j unspanned; else the column's
            # values on the rows are its coordinates
            coords = {p: row[j].as_int() for p, row in pivots.items() if j in row}
            if any(k is None or k < 0 or p >= ns for p, k in coords.items()):
                raise ValueError(f"positive root {covector_text(r.covector)} is not a simple combination")
            out.append(tuple(coords.get(p, 0) for p in range(ns)))
        return out


def covector_text(covector: tuple[Scalar, ...]) -> str:
    """A covector in the scalar grammar of the files, as every witness and error writes it: (1, 0, -1)."""
    return f"({', '.join(map(str, covector))})"


class Weight(NamedTuple):
    """Covector on the Cartan basis together with the central level."""

    values: tuple[Scalar, ...]
    level: Scalar = ZERO

    def __add__(self, other: "Weight") -> "Weight":
        if len(self.values) != len(other.values):
            raise ValueError("weights live on different Cartans")
        return Weight(
            tuple(a + b for a, b in zip(self.values, other.values)),
            self.level + other.level,
        )

    def __sub__(self, other: "Weight") -> "Weight":
        if len(self.values) != len(other.values):
            raise ValueError("weights live on different Cartans")
        return Weight(
            tuple(a - b for a, b in zip(self.values, other.values)),
            self.level - other.level,
        )

    def restrict(self) -> "Weight":
        return Weight(self.values, ZERO)


def gl_parity_sequence(m: int, n: int) -> list[int]:
    """Row parities for gl(m|n), maximally alternating: 0, 1, ..., 0, 1 when m = n, else the
    surplus rows of the majority parity first, then alternating rows that start and end with it,
    so gl(4|1) gives 0, 0, 0, 1, 0. The upper-triangular Borel of gl(n|n+1) and gl(n+1|n) then
    has a completely odd simple system, which is what the principal odd nilpotent needs.
    """
    if m == n:
        return [0, 1] * m
    major, minor = (0, 1) if m > n else (1, 0)
    return [major] * (abs(m - n) - 1) + [major, minor] * min(m, n) + [major]


def build_gl(m: int, n: int) -> tuple[SuperAlgebra, RootDatum]:
    """gl(m|n) on matrix units with the supertrace form and standard Borel."""
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("build_gl requires m + n >= 1")
    d = m + n
    rowp = gl_parity_sequence(m, n)

    def idx(a, b):
        return a * d + b

    def label(a, b):
        if d < 10:
            return f"E_{a + 1}{b + 1}"
        return f"E_{a + 1},{b + 1}"

    labels = [label(a, b) for a in range(d) for b in range(d)]
    parity = [rowp[a] ^ rowp[b] for a in range(d) for b in range(d)]

    table: dict[tuple[int, int], SparseVector] = {}
    for a, b, c, e in itertools.product(range(d), repeat=4):
        i, j = idx(a, b), idx(c, e)
        out: dict[int, Scalar] = {}
        if b == c:
            add_term(out, idx(a, e), ONE)
        if e == a:
            add_term(out, idx(c, b), -sign(parity[i] * parity[j]))
        if out:
            table[(i, j)] = SparseVector(out)

    form = {(idx(a, b), idx(b, a)): sign(rowp[a]) for a in range(d) for b in range(d)}
    alg = SuperAlgebra(f"gl({m}|{n})", labels, parity, table, SparseMatrix(d * d, d * d, form))

    cartan = tuple(idx(a, a) for a in range(d))
    roots = []
    positive = []
    simple = []
    for a in range(d):
        for b in range(d):
            if a == b:
                continue
            cov = tuple(ONE if c == a else (-ONE if c == b else ZERO) for c in range(d))
            roots.append(Root(cov, (idx(a, b),), rowp[a] ^ rowp[b]))
            k = len(roots) - 1
            if a < b:
                positive.append(k)
                if b == a + 1:
                    simple.append(k)
    rd = RootDatum(cartan, tuple(roots), tuple(positive), tuple(simple))
    return alg, rd


def verify_algebra(a: SuperAlgebra) -> Report:
    """Exact structural check: grading, anticommutativity, Jacobi, form axioms."""
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
            # a pair with both brackets zero holds, so only pairs in the table can fail; two odd
            # elements' rows are equal, and any other pair's rows are entrywise negatives
            for i, j in sorted({(min(key), max(key)) for key in a.table if max(key) < d})
            for y in [a.bracket_basis(j, i).entries]
            if a.bracket_basis(i, j).entries != (y if par[i] & par[j] else {k: -s for k, s in y.items()})
        ),
    )

    # With anticommutativity established, ordered triples cover all triples.
    # [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - (-1)^{p_i p_j} [e_j,[e_i,e_k]] is
    # accumulated over nonzero structure constants only, as one packed int per
    # (i, j, k, m), keyed by the int ((i*s + j)*s + k)*s + m.
    def jacobi_failures():
        rows = [v.entries for v in a.table.values()]
        s = 1 + max(itertools.chain(map(max, a.table), *rows), default=0)
        # a key sums at most one product per t < s in each of its three terms
        (flat,), mod = packed([[u for e in rows for u in e.values()]], 3 * s)
        s2, s3, num = s * s, s * s * s, iter(flat)
        table = {key: [(m, next(num)) for m in e] for key, e in zip(a.table, rows)}
        by_first: dict[int, list] = {}
        by_second: dict[int, list] = {}
        for (x, y), v in table.items():
            by_first.setdefault(x, []).append((y, v))
            by_second.setdefault(y, []).append((x, v))
        acc: dict[int, int] = {}
        for (x, y), v in table.items():
            if x > y:
                continue
            inner, swapped, outer = x * s2 + y * s, x * s3 + y * s, x * s3 + y * s2
            for t, u in v:
                # inner [e_x,e_y] under an outer e_o, as [e_i,[e_j,e_k]] or [e_j,[e_i,e_k]]
                for o, w in by_second.get(t, ()):
                    if o > y:
                        continue
                    odd = par[x] & par[o]
                    for m, c in w:
                        p = u * c
                        if o <= x:
                            key = o * s3 + inner + m
                            acc[key] = acc.get(key, 0) + p
                        if x <= o:
                            key = o * s2 + swapped + m
                            acc[key] = acc.get(key, 0) + (p if odd else -p)
                # outer [e_x,e_y] under e_k, as [[e_i,e_j],e_k]
                for k, w in by_first.get(t, ()):
                    if k >= y:
                        base = k * s + outer
                        for m, c in w:
                            acc[base + m] = acc.get(base + m, 0) - u * c
        for ijk in sorted({key // s for key, c in acc.items() if c % mod and key // s % s < d}):
            yield f"Jacobi fails at ({lab[ijk // s2]},{lab[ijk // s % s]},{lab[ijk % s]})"

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
                # a pair with both entries zero holds, so only pairs with a form entry can fail
                for i, j in sorted({(min(key), max(key)) for key in form.entries})
                if form.get(i, j) != (-form.get(j, i) if par[i] & par[j] else form.get(j, i))
            ),
        )

        rep.first_failure(
            "form is invariant",
            form_invariance_failures(a.table, form.entries, d, lab, "invariance"),
        )

        r = rank(form)
        rep.add("form is non-degenerate", None if r == d else f"rank {r} < {d}")
    return rep


def form_invariance_failures(table, form_entries, d, labels, what):
    """Witnesses of ([e_i,e_j]|e_k) != (e_i|[e_j,e_k]) for i, j, k < d, in order.

    Both sides are joined from the nonzero bracket entries `table` and the
    nonzero form entries `form_entries` ({(row, col): value}), so only the
    triples where a side can be nonzero are visited. Each term is a packed table
    value times a packed form value, added into one int per (i, j, k), keyed by
    the int (i*s + j)*s + k.
    """
    rows_t = [v.entries for v in table.values()]
    s = 1 + max(itertools.chain(map(max, table), map(max, form_entries), *rows_t), default=0)
    # a key sums at most one product per t < s on each side
    (fnum, tnum), mod = packed([list(form_entries.values()), [u for e in rows_t for u in e.values()]], 2 * s)
    s2, num = s * s, iter(tnum)
    rows: dict[int, list] = {}
    cols: dict[int, list] = {}
    for (r, c), f in zip(form_entries, fnum):
        rows.setdefault(r, []).append((c, f))
        cols.setdefault(c, []).append((r * s2, f))
    acc: dict[int, int] = {}
    for (x, y), e in zip(table, rows_t):
        left, right = x * s2 + y * s, x * s + y
        for t in e:
            u = next(num)
            for k, f in rows.get(t, ()):  # ([e_x,e_y]|e_k)
                acc[left + k] = acc.get(left + k, 0) + u * f
            for i, f in cols.get(t, ()):  # (e_i|[e_x,e_y])
                acc[i + right] = acc.get(i + right, 0) - u * f
    for key in sorted(key for key, c in acc.items() if c % mod):
        i, j, k = key // s2, key // s % s, key % s
        if max(i, j, k) < d:
            yield f"{what} fails at ({labels[i]},{labels[j]},{labels[k]})"


def eigen_failures(a: SuperAlgebra, rd: RootDatum):
    """A witness for each Cartan element h and root vector x with [h, x] != alpha(h) x, in root
    order, read from the bracket table."""
    for r in rd.roots:
        for x in r.space:
            for pos, h in enumerate(rd.cartan):
                value = r.covector[pos]
                if a.table.get((h, x), _EMPTY).entries != ({x: value} if value else {}):
                    yield f"[{a.labels[h]},{a.labels[x]}] != root value"


def verify_root_datum(a: SuperAlgebra, rd: RootDatum) -> Report:
    """[h, x] = alpha(h) x on every root space, spanning, and negatives; a passing root writes no text."""
    rep = Report("root datum checks")
    rep.first_failure("root space eigen-equations", eigen_failures(a, rd))

    indices = (*rd.cartan, *(x for r in rd.roots for x in r.space))
    spaces = set(indices)
    rep.first_failure(
        "cartan and root spaces span",
        [f"{a.labels[k]} is in no root space and not in the Cartan" for k in range(a.dim) if k not in spaces]
        + [f"index {k!r} is not a basis index" for k in indices if k not in range(a.dim)],
    )

    # one id per distinct covector, so that each covector is hashed once and negated at most once
    cid: dict[tuple, int] = {}
    ids = [cid.setdefault(r.covector, len(cid)) for r in rd.roots]
    opposite = {ids[i]: cid.get(tuple([-v for v in rd.roots[i].covector])) for i in rd.positive}
    negatives = set(opposite.values())  # the ids whose negative is positive

    def negative_failures():
        for r, k in zip(rd.roots, ids):
            positive = k in opposite
            if positive and opposite[k] is None:
                yield f"-{covector_text(r.covector)} is not a root"
            elif positive == (k in negatives):
                yield f"not exactly one of ±{covector_text(r.covector)} is positive"

    rep.first_failure("negatives are minus positives", negative_failures())
    return rep


def subalgebra_from_span(
    a: SuperAlgebra, gens: list[SparseVector], name: str = "span"
) -> tuple[SuperAlgebra, SparseMatrix]:
    """Close parity-homogeneous generators under bracket.

    Returns the sub-superalgebra with induced structure constants plus the
    restricted form, and the inclusion matrix (columns = sub basis vectors).
    """
    span = EchelonSpan()
    parities: list[int] = []

    def accept(v: SparseVector):
        p = a.parity_of(v)  # raises on a non-homogeneous generator
        if span.add(v):
            parities.append(p)

    for g in gens:
        if g:
            accept(g)
    # members before `done` were bracketed pairwise in an earlier round, and
    # their brackets already lie in the span
    done = 0
    while True:
        basis = list(span.members)
        n = len(basis)
        for i in range(n):
            for j in range(max(i, done), n):
                b = a.bracket(basis[i], basis[j])
                if b:
                    accept(b)
        if len(span.members) == n:
            break
        done = n

    basis = span.members
    k = len(basis)
    # a span element's coordinates over the reduced rows are its values at the
    # pivots, so one inverse of the members' values there gives coordinates
    # over the members
    order = sorted(span.pivots)
    row_of = {p: r for r, p in enumerate(order)}
    minor = SparseMatrix(
        k, k, {(row_of[p], i): s for i, v in enumerate(basis) for p, s in v.items() if p in row_of}
    )
    over_members = dict(zip(order, invert(minor)))
    table: dict[tuple[int, int], SparseVector] = {}
    for i in range(k):
        for j in range(k):
            b = a.bracket(basis[i], basis[j])
            if not b:
                continue
            coords = span.coordinates(b)
            if coords is None:
                raise RuntimeError("span closure is not bracket-closed")
            out: dict[int, Scalar] = {}
            for p, s in coords.items():
                for m, t in over_members[p].items():
                    add_term(out, m, s * t)
            table[(i, j)] = SparseVector._of(out)
    form = None
    if a.form is not None:
        form = SparseMatrix(
            k, k, {(i, j): a.form_pair(basis[i], basis[j]) for i in range(k) for j in range(k)}
        )
    labels = [f"s{i}" for i in range(k)]
    sub = SuperAlgebra(name, labels, parities, table, form)
    embed = SparseMatrix.from_columns(basis, a.dim)
    return sub, embed


def weyl_vector(rd: RootDatum, level: Scalar = ZERO) -> Weight:
    """Half the even positive roots minus half the odd ones, as a covector."""
    n = len(rd.cartan)
    acc = [ZERO] * n
    for r in rd.positive_roots():
        s = Scalar(1, 0) if r.parity == EVEN else Scalar(-1, 0)
        for t in range(n):
            acc[t] = acc[t] + s * r.covector[t]
    h = Scalar(1) / Scalar(2)
    return Weight(tuple(h * v for v in acc), level)


def grading_by_adh(a: SuperAlgebra, h: SparseVector) -> tuple[int, ...]:
    """The ad h degree of each basis vector.

    Every basis vector must be an ad-h eigenvector with an integer eigenvalue,
    as it is for the diagonal Cartan elements used here.
    """
    degrees = []
    for j in range(a.dim):
        img = a.bracket(h, SparseVector.unit(j))
        if img.entries.keys() - {j}:
            raise ValueError(f"the basis is not an eigenbasis for ad h: {a.labels[j]}")
        lam = img.get(j)
        k = lam.as_int()
        if k is None:
            raise ValueError(f"ad h eigenvalue {lam} on {a.labels[j]} is not an integer")
        degrees.append(k)
    return tuple(degrees)


def centralizer_dim(a: SuperAlgebra, x: SparseVector) -> int:
    """Dimension of ker(ad x) on a."""
    return a.dim - rank(a.ad_matrix(x))

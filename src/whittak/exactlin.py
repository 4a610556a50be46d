"""Exact scalars over the Gaussian rationals Q(i) and sparse linear algebra.

Everything downstream computes in this ground field; there is no floating
point anywhere in the package.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from fractions import Fraction


_REAL = r"[+-]?\d+(?:/\d+)?"
_IMAG = r"[+-]?(?:\d+(?:/\d+)?)?\*?i"
# a real and an imaginary part in either order, each optional but not both,
# with a sign between them
_SCALAR = re.compile(
    rf"(?P<re>{_REAL})(?:(?=[+-])(?P<im>{_IMAG}))?|(?P<im2>{_IMAG})(?:(?=[+-])(?P<re2>{_REAL}))?"
)


class Scalar:
    """A Gaussian rational (a + b*i)/d held as three ints.

    The form is normal: d > 0 and gcd(a, b, d) = 1, with zero as (0, 0, 1), so
    equality and hashing compare the ints directly. Each part given to the
    constructor is an int or a `fractions.Fraction`; a float, a str or a bool
    raises TypeError (text goes through `Scalar.parse`).
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            # both parts are in lowest terms, so over the lcm of their
            # denominators no prime divides a, b and d at once
            p, q = _part(re)
            r, s = _part(im)
            d = math.lcm(q, s)
            a, b = p * (d // q), r * (d // s)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self) -> Fraction:
        return _fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return _fraction(self._b, self._d)

    def as_int(self) -> int | None:
        """The value as an int when it is a rational integer, else None."""
        return self._a if self._d == 1 and not self._b else None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        d, f = self._d, other._d
        if d == f:
            if d == 1:
                return _scalar(self._a + other._a, self._b + other._b, 1)
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    def __sub__(self, other: "Scalar") -> "Scalar":
        d, f = self._d, other._d
        if d == f:
            if d == 1:
                return _scalar(self._a - other._a, self._b - other._b, 1)
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __neg__(self) -> "Scalar":
        return _scalar(-self._a, -self._b, self._d)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == 1 and f == 1:
            return _scalar(a * c - b * e, a * e + b * c, 1)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        c, e, f = other._a, other._b, other._d
        a, b, d = self._a, self._b, self._d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero Scalar")
            if c < 0:
                a, b, c = -a, -b, -c
            return _reduced(a * f, b * f, d * c)
        # multiply through by the conjugate; the norm c^2 + e^2 is positive
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return ONE / (self ** (-k))
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "Scalar":
        return _scalar(self._a, -self._b, self._d)

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self._a == other._a
            and self._b == other._b
            and self._d == other._d
        )

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    # -- text format --------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse "p/q" or "p/q+r/s*i" (signs optional, /1 may be omitted)."""
        if not isinstance(text, str):
            raise ValueError(f"scalar {text!r} is not a string")
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar string")
        m = _SCALAR.fullmatch(s)
        if not m:
            raise ValueError(f"cannot parse scalar {text!r}")
        p, q = _ratio(m["re"] or m["re2"] or "0")
        r, t = _ratio((m["im"] or m["im2"] or "0").rstrip("*i"))
        if not q or not t:
            raise ValueError(f"zero denominator in scalar {text!r}")
        return _reduced(p * t, r * q, q * t)

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio_str(a, d)
        im_mag = _ratio_str(abs(b), d)
        if not a:
            return f"{'-' if b < 0 else ''}{im_mag}*i"
        return f"{_ratio_str(a, d)}{'-' if b < 0 else '+'}{im_mag}*i"

    def __repr__(self) -> str:
        return f"Scalar({self})"

    # -- exact square root --------------------------------------------------

    def sqrt(self) -> "Scalar | None":
        """An exact square root in Q(i), or None when none exists."""
        if not self:
            return ZERO
        # sqrt((a + b*i)/d) = sqrt(p + q*i)/d with p + q*i = (a + b*i)*d, and
        # Z[i] is integrally closed, so the root of p + q*i lies in Z[i]
        d = self._d
        p, q = self._a * d, self._b * d
        if not q:
            r = _isqrt_exact(abs(p))
            if r is None:
                return None
            return _reduced(r, 0, d) if p > 0 else _reduced(0, r, d)
        n = _isqrt_exact(p * p + q * q)
        if n is None or (p + n) % 2:
            return None
        x = _isqrt_exact((p + n) // 2)
        if not x:
            return None
        root = _reduced(x, q // (2 * x), d)
        return root if root * root == self else None


# the slot descriptors' setters write past the immutability guard in __setattr__
_new = object.__new__
_set_a = Scalar._a.__set__
_set_b = Scalar._b.__set__
_set_d = Scalar._d.__set__


def _scalar(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*i)/d, for ints already in normal form."""
    s = _new(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


def _reduced(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*i)/d for d > 0, brought to normal form by one gcd."""
    g = math.gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _scalar(a, b, d)


def _fraction(n: int, d: int) -> Fraction:
    """Fraction(n, d). The first call imports `fractions` and rebinds this name to the class, so
    `import whittak` does not load the module and later calls run no import statement."""
    global _fraction
    from fractions import Fraction

    _fraction = Fraction
    return Fraction(n, d)


def _part(x) -> tuple[int, int]:
    """Numerator and denominator of an int or a Fraction, in lowest terms with a positive denominator."""
    if type(x) is bool or type(getattr(x, "numerator", None)) is not int:
        raise TypeError(f"a Scalar part must be an int or a Fraction, not {x!r}")
    return x.numerator, x.denominator


def _ratio(text: str) -> tuple[int, int]:
    """Numerator and denominator of "[+-]p[/q]"; an empty or bare-sign numerator is 1."""
    num, _, den = text.partition("/")
    return int(num + "1" if num in "+-" else num), int(den or 1)


def _ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _isqrt_exact(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
MINUS_ONE = Scalar(-1)


def sign(k: int) -> Scalar:
    """(-1)^k as a Scalar."""
    return MINUS_ONE if k % 2 else ONE


def numerators(values: list[Scalar]) -> list[tuple[int, int]]:
    """Each value's (re, im) numerator over one common denominator, in order. A sum of these
    Gaussian integers, or of products of two of them, is zero exactly when the Scalar sum is."""
    den = math.lcm(*{s._d for s in values})
    return [(s._a * (den // s._d), s._b * (den // s._d)) for s in values]


class SparseVector:
    """Finitely supported vector: basis index -> nonzero Scalar."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[int, Scalar] | None = None):
        self.entries = {i: s for i, s in (entries or {}).items() if s}

    @classmethod
    def _of(cls, entries: dict) -> "SparseVector":
        """A vector that takes `entries` as is; the caller ensures no value is zero."""
        v = _new(cls)
        v.entries = entries
        return v

    @staticmethod
    def unit(i: int) -> "SparseVector":
        return SparseVector._of({i: ONE})

    def get(self, i: int) -> Scalar:
        return self.entries.get(i, ZERO)

    def items(self):
        return self.entries.items()

    def support(self) -> list[int]:
        return sorted(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __add__(self, other: "SparseVector") -> "SparseVector":
        out = dict(self.entries)
        for i, s in other.entries.items():
            add_term(out, i, s)
        return type(self)._of(out)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        out = dict(self.entries)
        for i, s in other.entries.items():
            add_term(out, i, -s)
        return type(self)._of(out)

    def __neg__(self) -> "SparseVector":
        return type(self)._of({i: -s for i, s in self.entries.items()})

    def scale(self, s: Scalar) -> "SparseVector":
        if not s:
            return type(self)()
        # Q(i) has no zero divisors, so no product vanishes
        return type(self)._of({i: s * v for i, v in self.entries.items()})

    def __str__(self) -> str:
        return "{" + ", ".join(f"{i}: {s}" for i, s in sorted(self.entries.items())) + "}"

    __repr__ = __str__


def add_term(entries: dict[int, Scalar], i: int, s: Scalar) -> None:
    """In-place accumulate used by builders; keeps the no-zero invariant."""
    if not s:
        return
    cur = entries.get(i)
    if cur is None:
        entries[i] = s
    else:
        new = cur + s
        if new:
            entries[i] = new
        else:
            del entries[i]


class SparseMatrix:
    """rows x cols matrix with a dict of nonzero entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], Scalar] | None = None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        for (r, c), s in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            if s:
                self.entries[(r, c)] = s

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix(n, n, {(i, i): ONE for i in range(n)})

    @staticmethod
    def from_columns(cols: Iterable[SparseVector], rows: int) -> "SparseMatrix":
        entries = {}
        ncols = 0
        for j, v in enumerate(cols):
            ncols = j + 1
            for i, s in v.items():
                entries[(i, j)] = s
        return SparseMatrix(rows, ncols, entries)

    def get(self, r: int, c: int) -> Scalar:
        return self.entries.get((r, c), ZERO)

    def column(self, j: int) -> SparseVector:
        return SparseVector({r: s for (r, c), s in self.entries.items() if c == j})

    def pair(self, x: SparseVector, y: SparseVector) -> Scalar:
        """x^T M y."""
        entries = self.entries
        acc = ZERO
        for i, a in x.items():
            for j, b in y.items():
                s = entries.get((i, j))
                if s is not None:
                    acc = acc + a * s * b
        return acc

    def row_dicts(self) -> list[dict[int, Scalar]]:
        rows: list[dict[int, Scalar]] = [dict() for _ in range(self.rows)]
        for (r, c), s in self.entries.items():
            rows[r][c] = s
        return rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __str__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"

    __repr__ = __str__


def _reduce(pivots: dict, row: dict) -> dict:
    """Subtract from `row`, in place, its part in the span of the `pivots` rows.

    Returns that part's coordinates over the rows, keyed by pivot: the row's
    values at the pivot keys, since every stored row is zero at the other
    pivots. So one pass over those keys reduces the row.
    """
    coords = {p: s for p, s in row.items() if p in pivots}
    for p, f in coords.items():
        nf = -f
        for j, s in pivots[p].items():
            add_term(row, j, nf * s)
    return coords


def _insert(pivots: dict, row: dict) -> bool:
    """Add `row` (consumed) to a reduced echelon basis; False if it adds nothing.

    `pivots` maps each pivot key to a row with a 1 at that key and a 0 at
    every other pivot key. The reduced row becomes a new row with its least
    key as pivot, scaled to a unit there, and that key is cleared from the
    other rows. Every row stays zero below its pivot, so the rows sorted by
    pivot are the reduced row echelon form of their span, which is unique.
    """
    _reduce(pivots, row)
    if not row:
        return False
    p = min(row)
    piv = row[p]
    if piv != ONE:
        inv = ONE / piv
        row = {j: inv * s for j, s in row.items()}
    for other in pivots.values():
        f = other.get(p)
        if f is not None:
            nf = -f
            for j, s in row.items():
                add_term(other, j, nf * s)
    pivots[p] = row
    return True


def _rref(rows: Iterable[dict]) -> dict:
    """The reduced row echelon form of `rows` (consumed) as {pivot column: row}."""
    pivots: dict = {}
    for row in rows:
        _insert(pivots, row)
    return pivots


def rank(m: SparseMatrix) -> int:
    return len(_rref(m.row_dicts()))


def kernel_basis(m: SparseMatrix) -> list[SparseVector]:
    """Basis of the right null space; m . v = 0 exactly for each v."""
    pivots = _rref(m.row_dicts())
    # one vector per free column f: 1 at f, minus column f of the rows at their pivots
    basis = {f: {f: ONE} for f in range(m.cols) if f not in pivots}
    for c in sorted(pivots):
        for f, s in pivots[c].items():
            if f != c:
                basis[f][c] = -s
    return [SparseVector._of(v) for v in basis.values()]


def solve(m: SparseMatrix, b: SparseVector) -> SparseVector | None:
    """Some exact solution x of m . x = b, or None when inconsistent.

    Free variables are set to zero, so the solution has minimal support
    with respect to the pivot choice.
    """
    for i in b.support():
        if i >= m.rows:
            raise ValueError(f"rhs index {i} outside {m.rows} rows")
    aug = m.cols
    rows = m.row_dicts()
    for i, s in b.items():
        rows[i][aug] = s
    pivots = _rref(rows)
    if aug in pivots:
        return None
    return SparseVector._of({c: row[aug] for c, row in sorted(pivots.items()) if aug in row})


def invert(m: SparseMatrix) -> list[SparseVector]:
    """Columns of m^{-1}; raises on a singular matrix."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    rows = m.row_dicts()
    for i in range(n):
        rows[i][n + i] = ONE
    pivots = _rref(rows)
    if sorted(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    cols: list[dict[int, Scalar]] = [dict() for _ in range(n)]
    for r in range(n):
        for j, s in pivots[r].items():
            if j >= n:
                cols[j - n][r] = s
    return [SparseVector._of(c) for c in cols]


class EchelonSpan:
    """Incrementally maintained span, in reduced echelon form.

    `pivots` maps each pivot key to a row with a 1 at that key and a 0 at
    every other pivot key; `members` are the vectors `add` accepted, in order.
    """

    def __init__(self):
        self.pivots: dict = {}
        self.members: list[SparseVector] = []

    def __len__(self):
        return len(self.pivots)

    def add(self, v: SparseVector) -> bool:
        """Accept v as a member if it enlarges the span."""
        if not _insert(self.pivots, dict(v.entries)):
            return False
        self.members.append(v)
        return True

    def coordinates(self, v: SparseVector) -> dict | None:
        """v's coordinates over the reduced rows, keyed by pivot, or None if outside."""
        rest = dict(v.entries)
        coords = _reduce(self.pivots, rest)
        return None if rest else coords

"""Exact scalars over the Gaussian rationals Q(i) and sparse linear algebra.

Everything downstream computes in this ground field; there is no floating
point anywhere in the package.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Iterator


_TERM = re.compile(r"^([+-]?)(\d+(?:/\d+)?)?(\*?i)?$")


class Scalar:
    """A Gaussian rational (a + b*i)/d held as three ints.

    The form is normal: d > 0 and gcd(a, b, d) = 1, with zero as (0, 0, 1), so
    equality and hashing compare the ints directly.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            # both parts are in lowest terms, so over the lcm of their
            # denominators no prime divides a, b and d at once
            q, s = re.denominator, im.denominator
            d = math.lcm(q, s)
            a, b = re.numerator * (d // q), im.numerator * (d // s)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

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

    def one_norm(self) -> Fraction:
        """|re| + |im|, used for pivot choice and spectrum bounds."""
        return Fraction(abs(self._a) + abs(self._b), self._d)

    # -- text format --------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "Scalar":
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
            sign, mag, imark = m.groups()
            if mag is None and not imark:
                raise ValueError(f"cannot parse scalar {text!r}")
            num, _, den = (mag or "1").partition("/")
            if den and int(den) == 0:
                raise ValueError(f"zero denominator in scalar {text!r}")
            val = Fraction(int(num), int(den or 1))
            if sign == "-":
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


class SparseVector:
    """Finitely supported vector: basis index -> nonzero Scalar."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[int, Scalar] | None = None):
        self.entries = {i: s for i, s in (entries or {}).items() if s}

    @staticmethod
    def unit(i: int, coeff: Scalar = ONE) -> "SparseVector":
        return SparseVector({i: coeff} if coeff else {})

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
        return type(self)(out)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        out = dict(self.entries)
        for i, s in other.entries.items():
            add_term(out, i, -s)
        return type(self)(out)

    def __neg__(self) -> "SparseVector":
        return type(self)({i: -s for i, s in self.entries.items()})

    def scale(self, s: Scalar) -> "SparseVector":
        if not s:
            return type(self)()
        return type(self)({i: s * v for i, v in self.entries.items()})

    def dot(self, other: "SparseVector") -> Scalar:
        if len(self.entries) > len(other.entries):
            self, other = other, self
        acc = ZERO
        for i, s in self.entries.items():
            t = other.entries.get(i)
            if t is not None:
                acc = acc + s * t
        return acc

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

    def mul_vec(self, v: SparseVector) -> SparseVector:
        cols = {}
        for (r, c), s in self.entries.items():
            cols.setdefault(c, []).append((r, s))
        out: dict[int, Scalar] = {}
        for c, coeff in v.items():
            for r, s in cols.get(c, ()):
                add_term(out, r, s * coeff)
        return SparseVector(out)

    def row_dicts(self) -> list[dict[int, Scalar]]:
        rows: list[dict[int, Scalar]] = [dict() for _ in range(self.rows)]
        for (r, c), s in self.entries.items():
            rows[r][c] = s
        return rows

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows, {(c, r): s for (r, c), s in self.entries.items()})

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


def _rref(rows: list[dict[int, Scalar]], ncols: int) -> tuple[list[dict[int, Scalar]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot column list)."""
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


def rank(m: SparseMatrix) -> int:
    _, pivots = _rref(m.row_dicts(), m.cols)
    return len(pivots)


def kernel_basis(m: SparseMatrix) -> list[SparseVector]:
    """Basis of the right null space; m . v = 0 exactly for each v."""
    rows, pivots = _rref(m.row_dicts(), m.cols)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = {f: ONE}
        for r, c in enumerate(pivots):
            s = rows[r].get(f)
            if s is not None:
                v[c] = -s
        basis.append(SparseVector(v))
    return basis


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
    rows, pivots = _rref(rows, m.cols + 1)
    if aug in pivots:
        return None
    x: dict[int, Scalar] = {}
    for r, c in enumerate(pivots):
        s = rows[r].get(aug)
        if s is not None:
            x[c] = s
    return SparseVector(x)


def invert(m: SparseMatrix) -> list[SparseVector]:
    """Columns of m^{-1}; raises on a singular matrix."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    rows = m.row_dicts()
    for i in range(n):
        rows[i][n + i] = ONE
    rows, pivots = _rref(rows, 2 * n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    cols: list[dict[int, Scalar]] = [dict() for _ in range(n)]
    for r in range(n):
        for j, s in rows[r].items():
            if j >= n:
                cols[j - n][r] = s
    return [SparseVector(c) for c in cols]


class EchelonSpan:
    """Incrementally maintained span used for subalgebra closures.

    Rows are kept in forward echelon form; each row also records how it is
    expressed over the accepted member vectors, so `coordinates` can rewrite
    any span element over the members exactly.
    """

    def __init__(self):
        # (pivot index, echelon vector with unit pivot, member combination)
        self.rows: list[tuple[int, SparseVector, dict[int, Scalar]]] = []
        self.members: list[SparseVector] = []

    def __len__(self):
        return len(self.rows)

    def reduce(self, v: SparseVector, want_combo: bool = False):
        combo: dict[int, Scalar] = {}
        for p, w, wc in self.rows:
            coeff = v.get(p)
            if coeff:
                v = v - w.scale(coeff)
                if want_combo:
                    for m, cm in wc.items():
                        add_term(combo, m, coeff * cm)
        return (v, combo) if want_combo else v

    def add(self, v: SparseVector) -> bool:
        """Accept v as a member if it enlarges the span."""
        red, combo = self.reduce(v, want_combo=True)
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
        red, combo = self.reduce(v, want_combo=True)
        if red:
            return None
        return combo

"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against plain Fractions and dense
lists, with no imports from the package under test, so that expected values
are produced by a second route.
"""

from __future__ import annotations

import math
from fractions import Fraction

CNum = tuple[Fraction, Fraction]

CZERO: CNum = (Fraction(0), Fraction(0))
CONE: CNum = (Fraction(1), Fraction(0))


def cnum(re=0, im=0) -> CNum:
    return (Fraction(re), Fraction(im))


def c_add(a: CNum, b: CNum) -> CNum:
    return (a[0] + b[0], a[1] + b[1])


def c_sub(a: CNum, b: CNum) -> CNum:
    return (a[0] - b[0], a[1] - b[1])


def c_mul(a: CNum, b: CNum) -> CNum:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def c_div(a: CNum, b: CNum) -> CNum:
    n = b[0] * b[0] + b[1] * b[1]
    if n == 0:
        raise ZeroDivisionError
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def c_neg(a: CNum) -> CNum:
    return (-a[0], -a[1])


def c_conj(a: CNum) -> CNum:
    return (a[0], -a[1])


def c_pow(a: CNum, k: int) -> CNum:
    if k < 0:
        return c_div(CONE, c_pow(a, -k))
    out = CONE
    for _ in range(k):
        out = c_mul(out, a)
    return out


def _frac_sqrt(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    p, q = f.numerator, f.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp != p or rq * rq != q:
        return None
    return Fraction(rp, rq)


def c_sqrt(a: CNum) -> CNum | None:
    """The square root with positive real part (or on the positive imaginary
    axis), or None when a has no square root in Q(i)."""
    re, im = a
    if a == CZERO:
        return CZERO
    n = _frac_sqrt(re * re + im * im)
    if n is None:
        return None
    if im == 0:
        if re > 0:
            x = _frac_sqrt(re)
            return None if x is None else (x, Fraction(0))
        y = _frac_sqrt(-re)
        return None if y is None else (Fraction(0), y)
    x = _frac_sqrt((re + n) / 2)
    if x is None or x == 0:
        return None
    return (x, im / (2 * x))


def c_str(a: CNum) -> str:
    """Text form "re", "im*i" or "re+im*i", with Fraction formatting of parts."""
    re, im = a
    if not im:
        return str(re)
    im_mag = str(abs(im))
    if not re:
        return f"{'-' if im < 0 else ''}{im_mag}*i"
    return f"{re}{'-' if im < 0 else '+'}{im_mag}*i"


def zeros(r: int, c: int) -> list[list[CNum]]:
    return [[CZERO for _ in range(c)] for _ in range(r)]


def unit_matrix(d: int, a: int, b: int) -> list[list[CNum]]:
    m = zeros(d, d)
    m[a][b] = CONE
    return m


def mat_mul(x, y):
    d = len(x)
    out = zeros(d, d)
    for i in range(d):
        for k in range(d):
            if x[i][k] == CZERO:
                continue
            for j in range(d):
                if y[k][j] == CZERO:
                    continue
                out[i][j] = c_add(out[i][j], c_mul(x[i][k], y[k][j]))
    return out


def mat_add(x, y):
    return [[c_add(a, b) for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def mat_scale(x, s: CNum):
    return [[c_mul(a, s) for a in rx] for rx in x]


def supercommutator(x, y, px: int, py: int):
    """xy - (-1)^(px py) yx on dense matrices."""
    s = cnum(-1) if (px * py) % 2 else cnum(1)
    return mat_add(mat_mul(x, y), mat_scale(mat_mul(y, x), c_neg(s)))


def supertrace(x, row_parity: list[int]) -> CNum:
    acc = CZERO
    for a, p in enumerate(row_parity):
        term = x[a][a]
        if p % 2:
            term = c_neg(term)
        acc = c_add(acc, term)
    return acc


def rref_dense(rows: list[list[CNum]]) -> int:
    """In-place reduced echelon form over Q(i); returns the rank."""
    if not rows:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    for c in range(ncols):
        piv = None
        for k in range(r, nrows):
            if rows[k][c] != CZERO:
                piv = k
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = c_div(CONE, rows[r][c])
        rows[r] = [c_mul(inv, v) for v in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][c] != CZERO:
                f = rows[k][c]
                rows[k] = [c_sub(v, c_mul(f, w)) for v, w in zip(rows[k], rows[r])]
        r += 1
        if r == nrows:
            break
    return r


def gl_supercommutator_table(d: int, row_parity: list[int]):
    """All brackets [E_ab, E_cd] as dense matrices, keyed by unit pairs."""
    units = {(a, b): unit_matrix(d, a, b) for a in range(d) for b in range(d)}
    parity = {(a, b): (row_parity[a] + row_parity[b]) % 2 for a in range(d) for b in range(d)}
    table = {}
    for k1, m1 in units.items():
        for k2, m2 in units.items():
            table[(k1, k2)] = supercommutator(m1, m2, parity[k1], parity[k2])
    return table


def ad_matrix_gl(d: int, row_parity: list[int], coeffs: dict[tuple[int, int], CNum]):
    """Matrix of ad(x) on gl(d) units for x = sum coeffs[(a,b)] E_ab.

    Columns and rows are indexed by a*d+b. Assumes x is parity homogeneous.
    """
    px = {(row_parity[a] + row_parity[b]) % 2 for (a, b) in coeffs}
    assert len(px) == 1
    px = px.pop()
    amat = zeros(d * d, d * d)
    for c_idx in range(d * d):
        ya, yb = divmod(c_idx, d)
        y = unit_matrix(d, ya, yb)
        py = (row_parity[ya] + row_parity[yb]) % 2
        acc = zeros(d, d)
        for (a, b), s in coeffs.items():
            if s == CZERO:
                continue
            acc = mat_add(acc, mat_scale(supercommutator(unit_matrix(d, a, b), y, px, py), s))
        for i in range(d):
            for j in range(d):
                amat[i * d + j][c_idx] = acc[i][j]
    return amat

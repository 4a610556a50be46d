"""Scalar field axioms and exact sparse linear algebra."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modules import mul_vec
from oracles import (
    ad_matrix_gl,
    c_add,
    c_conj,
    c_div,
    c_mul,
    c_neg,
    c_pow,
    c_sqrt,
    c_str,
    c_sub,
    cnum,
    rref_dense,
)
from reference_engines import (
    ReferenceEchelonSpan,
    reference_invert,
    reference_kernel_basis,
    reference_parse,
    reference_rank,
    reference_rref,
    reference_solve,
)
from whittak.exactlin import (
    I,
    ONE,
    ZERO,
    EchelonSpan,
    Scalar,
    SparseMatrix,
    SparseVector,
    _rref,
    invert,
    kernel_basis,
    rank,
    solve,
)

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(Scalar, fracs, fracs)
nonzero_scalars = scalars.filter(bool)


class TestScalar:
    def test_parse_formats(self):
        assert Scalar.parse("-3/2+1/1*i") == Scalar(Fraction(-3, 2), 1)
        assert Scalar.parse("7") == Scalar(7)
        assert Scalar.parse("-1/2") == Scalar(Fraction(-1, 2))
        assert Scalar.parse("i") == I
        assert Scalar.parse("-i") == -I
        assert Scalar.parse("2*i") == Scalar(0, 2)
        assert Scalar.parse("1/3-2/5*i") == Scalar(Fraction(1, 3), Fraction(-2, 5))

    @given(scalars)
    def test_parse_roundtrip(self, s):
        assert Scalar.parse(str(s)) == s

    @given(scalars, scalars)
    def test_add_sub_cancel(self, a, b):
        assert (a + b) - b == a

    @given(scalars, nonzero_scalars)
    def test_mul_div_cancel(self, a, b):
        assert (a * b) / b == a

    @given(scalars, scalars, scalars)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    def test_sqrt(self):
        assert Scalar(-1).sqrt() in (I, -I)
        assert Scalar(4).sqrt() == Scalar(2)
        assert Scalar(Fraction(9, 4)).sqrt() == Scalar(Fraction(3, 2))
        assert Scalar(2).sqrt() is None
        two_i = Scalar(0, 2)
        r = two_i.sqrt()
        assert r is not None and r * r == two_i

    @given(scalars)
    def test_sqrt_of_square(self, s):
        r = (s * s).sqrt()
        assert r is not None and r * r == s * s

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    @pytest.mark.parametrize("text", ["1/0", "1/0*i", "-0/0", "2+1/0*i"])
    def test_parse_zero_denominator(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            Scalar.parse(text)

    def test_fraction_parts(self):
        s = Scalar(Fraction(-3, 4), Fraction(5, 6))
        assert (s._a, s._b, s._d) == (-9, 10, 12)
        assert type(s.re) is Fraction and type(s.im) is Fraction
        assert (s.re, s.im) == (Fraction(-3, 4), Fraction(5, 6))
        assert Scalar(Fraction(4, 2), Fraction(-1, 2)) == Scalar.parse("2-1/2*i")
        assert Scalar(Fraction(6, 3)) == Scalar(2) and type(Scalar(2).re) is Fraction

    @pytest.mark.parametrize("bad", [0.1, 2.0, "1/3", "2", True, False])
    def test_float_str_and_bool_parts_raise(self, bad):
        for args in ((bad,), (0, bad), (bad, 1), (Fraction(1, 2), bad)):
            with pytest.raises(TypeError, match="int or a Fraction"):
                Scalar(*args)

    @given(scalars | st.builds(Scalar, st.integers(-10**30, 10**30), st.integers(-3, 3)))
    @example(Scalar(0))
    @example(Scalar(-7))
    @example(Scalar(Fraction(-1, 2)))
    @example(Scalar(Fraction(8, 4), 1))
    @example(Scalar(0, -1))
    def test_as_int_is_the_rational_integer_test(self, s):
        want = int(s.re) if not s.im and s.re.denominator == 1 else None
        got = s.as_int()
        assert got == want and type(got) is type(want)


_numeral = st.integers(0, 120).map(str)
_magnitude = _numeral | st.tuples(_numeral, _numeral).map("/".join)
_imaginary = st.tuples(st.just("") | _magnitude, st.sampled_from(["i", "*i"])).map("".join)
# one part, or a real and an imaginary part in either order; the first part
# has an optional sign, the second a required one
well_formed_scalars = st.tuples(st.sampled_from(["", "+", "-"]), _magnitude | _imaginary).map(
    "".join
) | st.tuples(
    st.sampled_from(["", "+", "-"]), _magnitude, st.sampled_from("+-"), _imaginary, st.booleans()
).map(lambda t: t[0] + (t[3] + t[2] + t[1] if t[4] else t[1] + t[2] + t[3]))


def _parsed(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return ValueError, "zero denominator" in str(exc)


class TestParseAgainstReference:
    """Scalar.parse against the term-splitting reader it replaced."""

    @given(st.text(alphabet="0123456789+-/*i ", max_size=10) | well_formed_scalars)
    @example("12i")
    @example("-3/4*i+12")
    @example("*i-0")
    @settings(max_examples=600)
    def test_same_verdict_and_value(self, text):
        got, want = _parsed(Scalar.parse, text), _parsed(reference_parse, text)
        if isinstance(want, Scalar):
            assert got == want
        else:
            assert isinstance(got, tuple)

    @given(well_formed_scalars)
    @example("1/0+2*i")
    @example("3/00*i-1")
    def test_well_formed_zero_denominator_is_named(self, text):
        assert _parsed(Scalar.parse, text) == _parsed(reference_parse, text)


pairs = st.tuples(fracs, fracs)


def _pair(s):
    return (s.re, s.im)


def _assert_normal(s):
    """(a + b*i)/d with d > 0 and gcd(a, b, d) = 1; zero is (0, 0, 1)."""
    assert s._d > 0
    assert math.gcd(s._a, s._b, s._d) == 1


class TestScalarAgainstOracle:
    """Scalar arithmetic against the Fraction-pair functions in oracles.py."""

    @pytest.mark.parametrize(
        "op, oracle",
        [
            (operator.add, c_add),
            (operator.sub, c_sub),
            (operator.mul, c_mul),
            (operator.truediv, c_div),
        ],
    )
    @given(pairs, pairs)
    def test_binary(self, op, oracle, x, y):
        if op is operator.truediv and not any(y):
            return
        out = op(Scalar(*x), Scalar(*y))
        _assert_normal(out)
        assert _pair(out) == oracle(x, y)

    @given(pairs)
    def test_negation_and_conjugate(self, x):
        s = Scalar(*x)
        _assert_normal(s)
        for out, want in ((-s, c_neg(x)), (s.conjugate(), c_conj(x))):
            _assert_normal(out)
            assert _pair(out) == want

    @given(pairs, st.integers(-3, 4))
    def test_power(self, x, k):
        if k < 0 and not any(x):
            return
        out = Scalar(*x) ** k
        _assert_normal(out)
        assert _pair(out) == c_pow(x, k)

    @given(pairs)
    def test_sqrt(self, x):
        square = c_mul(x, x)
        for v in (x, square):
            root = Scalar(*v).sqrt()
            want = c_sqrt(v)
            assert (None if root is None else _pair(root)) == want
            if root is not None:
                _assert_normal(root)
        assert Scalar(*square).sqrt() is not None

    @given(pairs)
    def test_str_matches_fraction_pair_format(self, x):
        assert str(Scalar(*x)) == c_str(x)

    @pytest.mark.parametrize(
        "x",
        [
            (0, 0),
            (3, 0),
            (-3, 0),
            (Fraction(-7, 6), 0),
            (0, 1),
            (0, -1),
            (0, Fraction(5, 4)),
            (0, Fraction(-2, 3)),
            (1, 1),
            (Fraction(-1, 2), Fraction(-3, 4)),
            (Fraction(2, 3), Fraction(-1, 6)),
            (-4, Fraction(1, 9)),
        ],
    )
    def test_str_cases(self, x):
        assert str(Scalar(*x)) == c_str(cnum(*x))

    def test_equal_values_hash_equal(self):
        half = Scalar(Fraction(2, 4))
        built = [
            (half, ONE / Scalar(2)),
            (half, Scalar(Fraction(3, 4)) - Scalar(Fraction(1, 4))),
            (Scalar(Fraction(1, 2), Fraction(1, 2)), (ONE + I) / Scalar(2)),
            (ZERO, Scalar(Fraction(5, 6)) - Scalar(Fraction(10, 12))),
            (ONE, I * I.conjugate()),
            (Scalar(Fraction(-1, 3)), Scalar.parse("2/6") * Scalar(-1)),
        ]
        for a, b in built:
            _assert_normal(b)
            assert a == b and hash(a) == hash(b)

    @given(pairs, pairs)
    def test_round_trip_hashes_equal(self, x, y):
        a, b = Scalar(*x), Scalar(*y)
        if not b:
            return
        back = (a * b) / b
        assert back == a and hash(back) == hash(a)


class TestSparseVector:
    def test_no_zero_entries(self):
        v = SparseVector({0: ONE, 1: ZERO})
        assert v.support() == [0]
        w = v - v
        assert not w and w.support() == []

    def test_add_scale(self):
        v = SparseVector({0: ONE, 2: Scalar(3)})
        w = v + v.scale(Scalar(-1))
        assert not w
        assert v.scale(Scalar(2)).get(2) == Scalar(6)


def _mat(rows_cols, entries):
    rows, cols = rows_cols
    return SparseMatrix(rows, cols, {k: Scalar(v) for k, v in entries.items()})


class TestKernelAndSolve:
    def test_identity_kernel_trivial(self):
        assert kernel_basis(SparseMatrix.identity(2)) == []

    def test_row_vector_kernel(self):
        m = _mat((1, 2), {(0, 0): 1, (0, 1): 1})
        (v,) = kernel_basis(m)
        # (1, -1) up to scaling
        assert v.get(0) * Scalar(-1) == v.get(1)
        assert not mul_vec(m, v)

    def test_solve_identity(self):
        b = SparseVector({0: Scalar(5), 1: I})
        assert solve(SparseMatrix.identity(2), b) == b

    def test_solve_inconsistent(self):
        m = SparseMatrix(2, 2)
        assert solve(m, SparseVector({0: ONE})) is None

    def test_out_of_range_rhs(self):
        with pytest.raises(ValueError):
            solve(SparseMatrix.identity(2), SparseVector({5: ONE}))

    sparse_matrices = st.integers(2, 5).flatmap(
        lambda n: st.integers(2, 5).flatmap(
            lambda m: st.dictionaries(
                st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                st.builds(Scalar, fracs, fracs),
                max_size=8,
            ).map(lambda e: SparseMatrix(n, m, e))
        )
    )

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices)
    def test_kernel_properties(self, m):
        kb = kernel_basis(m)
        assert len(kb) == m.cols - rank(m)
        for v in kb:
            assert not mul_vec(m, v)
        if kb:
            stacked = SparseMatrix.from_columns(kb, m.cols)
            assert rank(stacked) == len(kb)

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices, st.lists(st.builds(Scalar, fracs, fracs), min_size=5, max_size=5))
    def test_solve_roundtrip(self, m, xs):
        x = SparseVector({i: s for i, s in enumerate(xs[: m.cols])})
        b = mul_vec(m, x)
        x2 = solve(m, b)
        assert x2 is not None
        assert mul_vec(m, x2) == b


GL12_ROW_PARITY = [1, 0, 1]  # alternating arrangement used by build_gl(1, 2)


def test_ad_e_kernel_dimension_gl12():
    """Principal odd e in gl(1|2): ad e has a 3-dimensional kernel.

    Expected value computed with the dense independent oracle (matrix-unit
    supercommutators + dense row reduction), then the sparse kernel is
    checked against it.
    """
    coeffs = {(1, 0): cnum(1), (2, 1): cnum(1)}  # e = E_21 + E_32 (0-based rows)
    amat = ad_matrix_gl(3, GL12_ROW_PARITY, coeffs)
    oracle_rank = rref_dense([row[:] for row in amat])
    oracle_kernel_dim = 9 - oracle_rank
    assert oracle_kernel_dim == 3

    entries = {}
    for i, row in enumerate(amat):
        for j, (re, im) in enumerate(row):
            if re or im:
                entries[(i, j)] = Scalar(re, im)
    m = SparseMatrix(9, 9, entries)
    kb = kernel_basis(m)
    assert len(kb) == oracle_kernel_dim
    for v in kb:
        assert not mul_vec(m, v)


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
small_scalars = st.builds(Scalar, small_fracs, small_fracs)


@st.composite
def gaussian_matrices(draw, square=False):
    """Sparse Q(i) matrices, empty, wide or tall, with zero, repeated and dependent rows.

    Square ones are half the time a permuted diagonal plus sparse entries, so
    that most of those are invertible.
    """
    n = draw(st.integers(0, 6))
    m = n if square else draw(st.integers(0, 6))
    diagonal = draw(st.permutations(range(n))) if square and draw(st.booleans()) else None
    rows: list[dict] = []
    for r in range(n):
        kinds = ["own", "own", "zero", "copy", "combo"] if r and not diagonal else ["own"]
        kind = draw(st.sampled_from(kinds))
        if kind == "own":
            cols = draw(st.lists(st.integers(0, m - 1), max_size=3)) if m else []
            rows.append({c: draw(small_scalars) for c in cols})
            if diagonal:
                rows[r][diagonal[r]] = draw(small_scalars.filter(bool))
        elif kind == "zero":
            rows.append({})
        else:
            row: dict = {}
            for _ in range(1 if kind == "copy" else 2):
                k = ONE if kind == "copy" else draw(small_scalars)
                for c, s in rows[draw(st.integers(0, r - 1))].items():
                    row[c] = row.get(c, ZERO) + k * s
            rows.append(row)
    return SparseMatrix(n, m, {(r, c): s for r, row in enumerate(rows) for c, s in row.items()})


class TestOneEchelonCore:
    """The reduced-echelon core against the column-scanning elimination it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(gaussian_matrices())
    @example(SparseMatrix(0, 0))
    @example(SparseMatrix(3, 0))
    @example(SparseMatrix(0, 3))
    def test_rref_rank_and_kernel_match_reference(self, m):
        ref_rows, ref_pivots = reference_rref(m.row_dicts(), m.cols)
        pivots = _rref(m.row_dicts())
        assert sorted(pivots) == ref_pivots
        assert [pivots[p] for p in ref_pivots] == ref_rows[: len(ref_pivots)]
        assert not any(ref_rows[len(ref_pivots):])
        assert rank(m) == reference_rank(m)
        assert kernel_basis(m) == reference_kernel_basis(m)

    @settings(max_examples=100, deadline=None)
    @given(gaussian_matrices(), st.data())
    def test_solve_matches_reference(self, m, data):
        b = SparseVector()
        if m.rows:
            rows = st.integers(0, m.rows - 1)
            b = SparseVector(data.draw(st.dictionaries(rows, small_scalars, max_size=3)))
        assert solve(m, b) == reference_solve(m, b)

    @settings(max_examples=80, deadline=None)
    @given(gaussian_matrices(square=True))
    @example(SparseMatrix(2, 2, {(0, 0): ONE, (0, 1): I, (1, 0): I, (1, 1): -ONE}))
    def test_invert_matches_reference(self, m):
        try:
            want = reference_invert(m)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                invert(m)
            return
        assert invert(m) == want

    int_keys = st.integers(0, 7)
    # Fock keys: two polynomial exponents, then a Grassmann and a Clifford bit
    fock_keys = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([int_keys, fock_keys]).flatmap(
        lambda keys: st.lists(
            st.tuples(st.booleans(), st.dictionaries(keys, small_scalars, max_size=4)),
            max_size=10,
        )
    ))
    def test_span_matches_reference(self, steps):
        span, ref = EchelonSpan(), ReferenceEchelonSpan()

        def check_coordinates(v):
            coords = span.coordinates(v)
            assert (coords is None) == (ref.coordinates(v) is None)
            if coords is not None:
                total = SparseVector()
                for p, s in coords.items():
                    total = total + SparseVector(span.pivots[p]).scale(s)
                assert total == v

        for is_add, entries in steps:
            v = SparseVector(entries)
            if is_add:
                assert span.add(v) == ref.add(v)
                assert span.members == ref.members
            else:
                check_coordinates(v)
        # members and their sum lie in the span
        for v in span.members + [sum(span.members, SparseVector())]:
            check_coordinates(v)
        # each row has a 1 at its pivot, its least key, and a 0 at the other pivots
        for p, row in span.pivots.items():
            assert row[p] == ONE and min(row) == p
            assert not (set(row) & set(span.pivots)) - {p}
        assert len(span) == len(ref.rows)

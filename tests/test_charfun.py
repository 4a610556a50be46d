"""Formal character arithmetic and the factorization identities."""

import functools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from modules import borel_root_datum, char_difference, char_product, verify_simple_character_factorization
from reference_engines import (
    _reference_multiply_series,
    reference_fock_character,
    reference_simple_coordinates,
    reference_verify_factorization,
    reference_verma_character,
    unit_character,
)

from whittak import charfun
from whittak.charfun import (
    FormalCharacter,
    _difference,
    _exponents,
    _free_character,
    fock_character,
    verify_factorization,
    verma_character,
)
from whittak.exactlin import I, ONE, ZERO, Scalar, SparseMatrix, SparseVector, rank
from whittak.fockrep import build_fock
from whittak.superalg import (
    Root,
    RootDatum,
    Weight,
    build_gl,
    grading_by_adh,
    subalgebra_from_span,
    weyl_vector,
)
from whittak.takiff import build_takiff

half = Scalar(Fraction(1, 2))


def extension(m, n):
    a, rd = build_gl(m, n)
    return build_takiff(a, rd)[0], rd


def fock(m, n, c):
    t, rd = extension(m, n)
    return build_fock(t, c), rd


# every gl(m|n) with m + n <= 5, the purely even and purely odd ones included
_GL_SHAPES = [(m, k - m) for k in range(1, 6) for m in range(k + 1)]
_LEVELS = [ONE, Scalar(Fraction(-2, 3)), ONE + I]


@functools.lru_cache(maxsize=None)
def cached_fock(m, n, c):
    return fock(m, n, c)


def same_character(a, b):
    return (a.anchor, a.truncation, a.nsimple, a.coeffs) == (b.anchor, b.truncation, b.nsimple, b.coeffs)


def zero_weight(rd, level=ZERO):
    return Weight((ZERO,) * len(rd.cartan), level)


class TestProduct:
    def test_unit(self):
        _, rd = extension(2, 1)
        a = verma_character(rd, zero_weight(rd, ONE), 4)
        u = unit_character(zero_weight(rd), 4, len(rd.simple))
        assert char_difference(char_product(a, u), a) is None

    def test_binomial_square(self):
        _, rd = extension(1, 1)
        one_plus = FormalCharacter(zero_weight(rd), 5, 1, {(0,): 1, (1,): 1})
        sq = char_product(one_plus, one_plus)
        assert sq.coefficient((0,)) == 1
        assert sq.coefficient((1,)) == 2
        assert sq.coefficient((2,)) == 1
        assert sq.coefficient((3,)) == 0

    def test_cartan_mismatch_rejected(self):
        _, rd1 = extension(1, 1)
        _, rd2 = extension(2, 1)
        a = unit_character(zero_weight(rd1), 3, len(rd1.simple))
        b = unit_character(zero_weight(rd2), 3, len(rd2.simple))
        with pytest.raises(ValueError):
            char_product(a, b)

    def test_associative_commutative_random(self):
        rng = random.Random(0)
        _, rd = extension(2, 1)
        n = len(rd.simple)

        def rand_char():
            coeffs = {}
            for _ in range(rng.randint(1, 5)):
                off = tuple(rng.randint(0, 2) for _ in range(n))
                coeffs[off] = rng.randint(-3, 3)
            anchor = Weight(tuple(Scalar(rng.randint(-2, 2)) for _ in rd.cartan))
            return FormalCharacter(anchor, 4, n, {k: v for k, v in coeffs.items() if v})

        for _ in range(10):
            a, b, c = rand_char(), rand_char(), rand_char()
            ab_c = char_product(char_product(a, b), c)
            a_bc = char_product(a, char_product(b, c))
            assert char_difference(ab_c, a_bc) is None
            assert char_difference(char_product(a, b), char_product(b, a)) is None


class TestVerma:
    def test_gl11_extended(self):
        _, rd = extension(1, 1)
        lam = weyl_vector(rd, ONE)
        ch = verma_character(rd, lam, 5, hatted=True)
        assert ch.coefficient((0,)) == 2
        for k in range(1, 6):
            assert ch.coefficient((k,)) == 4

    def test_gl20_classical(self):
        _, rd = extension(2, 0)
        lam = zero_weight(rd)
        ch = verma_character(rd, lam, 5, hatted=False)
        for k in range(6):
            assert ch.coefficient((k,)) == 1

    def test_truncation_monotone(self):
        _, rd = extension(2, 1)
        lam = zero_weight(rd, ONE)
        ch5 = verma_character(rd, lam, 5, hatted=True)
        ch3 = verma_character(rd, lam, 3, hatted=True)
        assert char_difference(ch5, ch3) is None  # compared up to the lower truncation, 3

    def test_zero_level_drops_clifford_factor(self):
        _, rd = extension(1, 1)
        ch = verma_character(rd, zero_weight(rd), 3, hatted=True)
        assert ch.coefficient((0,)) == 1


class TestFockCharacter:
    def test_gl11_census(self):
        _, rd = extension(1, 1)
        ch = fock_character(rd, Scalar(2), 5)
        assert ch.anchor == weyl_vector(rd, Scalar(2))
        for k in range(6):
            assert ch.coefficient((k,)) == 2

    def test_gl20_census(self):
        _, rd = extension(2, 0)
        ch = fock_character(rd, ONE, 3)
        assert ch.coefficient((0,)) == 2
        assert ch.coefficient((1,)) == 2
        assert ch.coefficient((2,)) == 0

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_census_matches_closed_form(self, m, n):
        # the census walks the module's letter layout; the closed form never reads it
        f, rd = fock(m, n, ONE)
        census = reference_fock_character(f, 4)
        closed = fock_character(rd, ONE, 4)
        assert char_difference(census, closed) is None

    def test_gl21_coefficients_positive_even(self):
        _, rd = extension(2, 1)
        ch = fock_character(rd, ONE, 4)
        assert ch.coeffs
        for m in ch.coeffs.values():
            assert m > 0 and m % 2 == 0


class TestAgainstReferenceEngines:
    """The one product over the generators against the census walk and the two-knob series it replaced."""

    @given(st.sampled_from(_GL_SHAPES), st.sampled_from(_LEVELS), st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_fock_character(self, mn, c, trunc):
        f, rd = cached_fock(*mn, c)
        assert same_character(fock_character(rd, c, trunc), reference_fock_character(f, trunc))

    @pytest.mark.parametrize("hatted", [True, False])
    @pytest.mark.parametrize("level", [ZERO, Scalar(Fraction(-2, 3))])
    @given(st.sampled_from(_GL_SHAPES), st.data(), st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_verma_character(self, hatted, level, mn, data, trunc):
        _, rd = cached_fock(*mn, ONE)
        values = st.sampled_from([ZERO, ONE, Scalar(-3), half, I])
        lam = Weight(tuple(data.draw(values) for _ in rd.cartan), level)
        ours = verma_character(rd, lam, trunc, hatted=hatted)
        assert same_character(ours, reference_verma_character(rd, lam, trunc, hatted=hatted))
        # every hatted factor is a full series, so some entry reaches trunc: the largest digit of the
        # packed keys' radix trunc + 1, which one radix less would carry
        assert not (hatted and rd.positive) or any(trunc in o for o in ours.coeffs)


class TestPackedKeys:
    def test_corner_keys(self):
        # 1/((1-x)(1-y)) up to height 3: every entry from 0 to trunc, each coefficient 1
        w = Weight((ZERO,))
        ch = _free_character(w, 1, [((1, 0), 1, 0), ((0, 1), 1, 0)], 3, 2)
        assert ch.coeffs == {(i, j): 1 for i in range(4) for j in range(4 - i)}
        assert _free_character(w, 1, [((1, 0), 1, 0)], 0, 2).coeffs == {(0, 0): 1}


class TestFactorization:
    def test_gl11_at_rho(self):
        t, rd = extension(1, 1)
        rep = verify_factorization(t, ONE, weyl_vector(rd, ONE))
        assert rep.passed, rep.to_dict()

    def test_gl21_integral_weight(self):
        c = Scalar(2)
        t, rd = extension(2, 1)
        lam = Weight((Scalar(1), ZERO, Scalar(-1)), c)
        rep = verify_factorization(t, c, lam)
        assert rep.passed, rep.to_dict()

    def test_level_mismatch_rejected(self):
        t, rd = extension(1, 1)
        with pytest.raises(ValueError):
            verify_factorization(t, ONE, zero_weight(rd, Scalar(2)))

    def test_dropped_shift_canary(self):
        # replacing lambda - rho by lambda must produce a witnessed mismatch
        _, rd = extension(1, 1)
        lam = weyl_vector(rd, ONE)
        lhs = verma_character(rd, lam, 5, hatted=True)
        rhs = char_product(
            fock_character(rd, ONE, 5), verma_character(rd, lam.restrict(), 5, hatted=False)
        )
        assert char_difference(lhs, rhs) is not None


class TestExponentCertificate:
    """The factorization compares anchors, dimensions and exponent maps, not truncated series."""

    _POOL = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (2, 2)]  # offsets o with 2o among them
    _FACTOR = st.tuples(st.sampled_from(_POOL), st.integers(0, 1), st.integers(0, 1))

    @staticmethod
    def _rewritten(factors, flags):
        """The same product written another way: (1+x)/(1-x) as (1+x) and 1/(1-x), and 1/(1-x^o)
        as (1+x^o)/(1-x^2o)."""
        out = []
        for (o, even, odd), flag in zip(factors, flags):
            if flag and even and odd:
                out += [(o, 1, 0), (o, 0, 1)]
            elif flag and even:
                out += [(o, 0, 1), (tuple(2 * x for x in o), 1, 0)]
            else:
                out.append((o, even, odd))
        return out + factors[len(flags):]

    @staticmethod
    def _series(factors, trunc):
        # the two-knob series engine: (1+x)^odd / (1-x)^even as listed first coefficients and a tail
        ch = unit_character(Weight((ZERO,)), trunc, 2)
        for o, even, odd in factors:
            tail = even * (1 + odd) if even else None
            ch = _reference_multiply_series(ch, o, [1, even + odd] if odd else [1], tail)
        return ch

    @given(
        st.lists(_FACTOR, max_size=5),
        st.lists(st.booleans(), max_size=5),
        st.lists(_FACTOR, max_size=2),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_verdict_matches_series_comparison(self, fa, flags, extra, rnd):
        fb = self._rewritten(fa, flags) + extra
        rnd.shuffle(fb)
        anchor = Weight((ZERO,))
        # the maps agree above the largest offset either one holds, so that height covers any difference
        trunc = max((sum(v) for v in _exponents(fa).keys() | _exponents(fb).keys()), default=0)
        ours = _difference((anchor, 2, fa), (anchor, 2, fb))
        assert (ours is None) == (char_difference(self._series(fa, trunc), self._series(fb, trunc)) is None)

    def test_one_plus_x_over_one_minus_x_squared(self):
        # (1+x)/(1-x^2) = 1/(1-x): equal characters whose factor lists differ
        a = (Weight((ZERO,)), 1, [((1,), 0, 1), ((2,), 1, 0)])
        assert _difference(a, (Weight((ZERO,)), 1, [((1,), 1, 0)])) is None
        assert _difference(a, (Weight((ZERO,)), 1, [((1,), 0, 1)])) == "offset (2,): exponent 0 != 1"

    @given(st.sampled_from([(m, n) for m, n in _GL_SHAPES if m + n > 1]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_series_check(self, mn, data):
        t, rd = extension(*mn)
        c = data.draw(st.sampled_from(_LEVELS))
        lam = Weight(tuple(data.draw(st.sampled_from([ZERO, ONE, Scalar(-3), half, I])) for _ in rd.cartan), c)
        trunc = data.draw(st.integers(0, 5))
        ours = verify_factorization(t, c, lam)
        ref = reference_verify_factorization(t, c, lam, trunc)
        assert ours.passed and ref.passed
        assert ours.checks == ref.checks

    @staticmethod
    def _fock_with(change):
        real = charfun._fock

        def planted(rd, offsets, c):
            return change(*real(rd, offsets, c))

        return planted

    # shapes whose rho is nonzero, so that a dropped shift moves the anchor
    @pytest.mark.parametrize("mn", [(1, 1), (2, 0), (2, 2), (3, 1)])
    def test_planted_faults_fail(self, monkeypatch, mn):
        t, rd = extension(*mn)
        lam = weyl_vector(rd, ONE)
        assert verify_factorization(t, ONE, lam).passed
        flipped = self._fock_with(lambda a, d, f: (a, d, [(f[0][0], f[0][2], f[0][1]), *f[1:]]))
        doubled = self._fock_with(lambda a, d, f: (a, 2 * d, f))
        real_rho = charfun.weyl_vector

        def no_shift(rd, level=None):
            # rho at the Fock anchor's level stays; the lambda - rho shift drops rho
            return real_rho(rd, level) if level is not None else Weight((ZERO,) * len(rd.cartan))

        for name, fault, witness in [
            ("_fock", flipped, "offset "),
            ("_fock", doubled, "Clifford dimensions differ"),
            ("weyl_vector", no_shift, "anchors differ"),
        ]:
            with monkeypatch.context() as mp:
                mp.setattr(charfun, name, fault)
                rep = verify_factorization(t, ONE, lam)
            assert not rep.passed
            assert rep.checks[0].witness.startswith(witness)


def osp12_closure():
    """osp(1|2) as `build span` closes its principal e and f in gl(1|2), with its root datum: the
    Cartan element h = E_33 - E_11 and the roots +-alpha (odd) and +-2 alpha (even), read from ad h."""
    a, _ = build_gl(1, 2)

    def unit(label):
        return SparseVector.unit(a.labels.index(label))

    sub, emb = subalgebra_from_span(a, [unit("E_21") + unit("E_32"), unit("E_23") - unit("E_12")])
    h = next(j for j in range(sub.dim) if emb.column(j) == unit("E_33") - unit("E_11"))
    degrees = grading_by_adh(sub, SparseVector.unit(h))
    roots = tuple(Root((Scalar(d),), (j,), sub.parity[j]) for j, d in enumerate(degrees) if d)
    positive = tuple(i for i, r in enumerate(roots) if r.covector[0].as_int() > 0)
    simple = tuple(i for i, r in enumerate(roots) if r.covector[0] == ONE)
    return sub, RootDatum((h,), roots, positive, simple)


def osp12_root_datum():
    return osp12_closure()[1]


class TestPositiveOffsets:
    """One elimination of [simple roots | positive roots] against one `solve` per root."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _root_datum(shape, order):
        return osp12_root_datum() if shape == "osp(1|2)" else borel_root_datum(*shape, order)[1]

    def test_osp12(self):
        rd = osp12_root_datum()
        assert [r.parity for r in rd.positive_roots()] == [1, 0]
        assert rd.positive_offsets() == [(1,), (2,)]

    @given(st.sampled_from([*_GL_SHAPES, "osp(1|2)"]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_root_solve(self, shape, data):
        # gl(m|n) over the Borel of a drawn row order, so that the own simples are those of any
        # positive system
        order = () if shape == "osp(1|2)" else tuple(data.draw(st.permutations(range(sum(shape)))))
        rd = self._root_datum(shape, order)
        # the datum's own simples, or any few positive roots in their place
        others = st.lists(st.sampled_from(rd.positive), unique=True, max_size=len(rd.simple) + 1)
        simple = data.draw(st.just(rd.simple) | others.map(tuple) if rd.positive else st.just(rd.simple))
        rd = rd._replace(simple=simple)
        want = [reference_simple_coordinates(rd, r) for r in rd.positive_roots()]
        simples = [SparseVector(dict(enumerate(r.covector))) for r in rd.simple_roots()]
        if rank(SparseMatrix.from_columns(simples, len(rd.cartan))) < len(simple):
            # dependent simples leave no coordinates unique
            with pytest.raises(ValueError, match="the simple roots are linearly dependent"):
                rd.positive_offsets()
        elif None in want:
            bad = rd.positive_roots()[want.index(None)]
            cov = ", ".join(map(str, bad.covector))  # the scalar grammar of the file formats
            with pytest.raises(ValueError, match=re.escape(f"positive root ({cov}) is not a simple")):
                rd.positive_offsets()
        else:
            assert rd.positive_offsets() == want

    def test_dependent_simples_raise(self):
        _, rd = build_gl(2, 1)
        # the two simple roots and their sum: every coordinate vector of the sum is one of two
        total = rd.root_index(tuple(x + y for x, y in zip(*(r.covector for r in rd.simple_roots()))))
        with pytest.raises(ValueError, match="the simple roots are linearly dependent"):
            rd._replace(simple=rd.simple + (total,)).positive_offsets()

    def test_unspanned_root_raises(self):
        rd = osp12_root_datum()
        # 2 alpha as the one simple root: alpha is half of it
        halved = rd._replace(simple=(rd.positive[1],))
        with pytest.raises(ValueError, match="is not a simple combination"):
            halved.positive_offsets()
        assert reference_simple_coordinates(halved, rd.positive_roots()[0]) is None


class TestSimpleCharacterIdentity:
    def test_trivial_restricted_character_matches_census(self):
        _, rd = extension(1, 1)
        lam = weyl_vector(rd, ONE)
        ch_ls = unit_character(zero_weight(rd), 6, len(rd.simple))
        rep = verify_simple_character_factorization(
            rd, ONE, ch_ls, lam, 6, ch_l=fock_character(rd, ONE, 6)
        )
        assert rep.passed, rep.to_dict()

    def test_typical_weight_reduces_to_verma_factorization(self):
        _, rd = extension(2, 1)
        lam = Weight((Scalar(2), ZERO, Scalar(-1)), ONE)
        rho = weyl_vector(rd)
        shifted = Weight(tuple(a - b for a, b in zip(lam.values, rho.values)), ZERO)
        ch_ms = verma_character(rd, shifted, 4, hatted=False)
        rep = verify_simple_character_factorization(
            rd, ONE, ch_ms, lam, 4, ch_l=verma_character(rd, lam, 4, hatted=True)
        )
        assert rep.passed, rep.to_dict()

    def test_zero_character_gives_zero(self):
        _, rd = extension(1, 1)
        empty = FormalCharacter(zero_weight(rd), 4, len(rd.simple), {})
        rep = verify_simple_character_factorization(
            rd, ONE, empty, weyl_vector(rd, ONE), 4
        )
        assert rep.data["rhs"]["terms"] == []

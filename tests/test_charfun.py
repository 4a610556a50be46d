"""Formal character arithmetic and the factorization identities."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from modules import verify_simple_character_factorization
from reference_engines import reference_fock_character, reference_verma_character, unit_character

from whittak.charfun import (
    FormalCharacter,
    char_difference,
    char_product,
    fock_character,
    verify_factorization,
    verma_character,
)
from whittak.exactlin import I, ONE, ZERO, Scalar
from whittak.fockrep import build_fock
from whittak.superalg import Weight, build_gl, weyl_vector
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
        assert char_difference(ch5.truncated(3), ch3) is None

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


class TestFactorization:
    def test_gl11_at_rho(self):
        t, rd = extension(1, 1)
        rep = verify_factorization(t, ONE, weyl_vector(rd, ONE), 6)
        assert rep.passed, rep.to_json()

    def test_gl21_integral_weight(self):
        c = Scalar(2)
        t, rd = extension(2, 1)
        lam = Weight((Scalar(1), ZERO, Scalar(-1)), c)
        rep = verify_factorization(t, c, lam, 4)
        assert rep.passed, rep.to_json()

    def test_level_mismatch_rejected(self):
        t, rd = extension(1, 1)
        with pytest.raises(ValueError):
            verify_factorization(t, ONE, zero_weight(rd, Scalar(2)), 3)

    def test_dropped_shift_canary(self):
        # replacing lambda - rho by lambda must produce a witnessed mismatch
        _, rd = extension(1, 1)
        lam = weyl_vector(rd, ONE)
        lhs = verma_character(rd, lam, 5, hatted=True)
        rhs = char_product(
            fock_character(rd, ONE, 5), verma_character(rd, lam.restrict(), 5, hatted=False)
        )
        assert char_difference(lhs, rhs) is not None


class TestSimpleCharacterIdentity:
    def test_trivial_restricted_character_matches_census(self):
        _, rd = extension(1, 1)
        lam = weyl_vector(rd, ONE)
        ch_ls = unit_character(zero_weight(rd), 6, len(rd.simple))
        rep = verify_simple_character_factorization(
            rd, ONE, ch_ls, lam, 6, ch_l=fock_character(rd, ONE, 6)
        )
        assert rep.passed, rep.to_json()

    def test_typical_weight_reduces_to_verma_factorization(self):
        _, rd = extension(2, 1)
        lam = Weight((Scalar(2), ZERO, Scalar(-1)), ONE)
        rho = weyl_vector(rd)
        shifted = Weight(tuple(a - b for a, b in zip(lam.values, rho.values)), ZERO)
        ch_ms = verma_character(rd, shifted, 4, hatted=False)
        rep = verify_simple_character_factorization(
            rd, ONE, ch_ms, lam, 4, ch_l=verma_character(rd, lam, 4, hatted=True)
        )
        assert rep.passed, rep.to_json()

    def test_zero_character_gives_zero(self):
        _, rd = extension(1, 1)
        empty = FormalCharacter(zero_weight(rd), 4, len(rd.simple), {})
        rep = verify_simple_character_factorization(
            rd, ONE, empty, weyl_vector(rd, ONE), 4
        )
        assert rep.data["rhs"]["terms"] == []

"""Nilcharacters, dual-element systems, Whittaker solving, word pairings."""

import copy
import functools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modules import TensorModule, borel_root_datum, natural_module
from oracles import rref_dense
from reference_engines import (
    reference_even_positive_corrections,
    reference_pairing_word_check,
    reference_regularity_check,
    reference_solve_dual_elements,
    whittaker_kernel,
)
from test_acceptance import barred_odd_domain, clifford_words, principal_data, same_span, twisted_principal
from test_charfun import _GL_SHAPES, _LEVELS, osp12_closure
from whittak import wfinite
from whittak.exactlin import I, ONE, ZERO, Scalar, SparseMatrix, SparseVector, EchelonSpan, invert
from whittak.fockrep import build_fock, clifford_module_dim
from whittak.superalg import EVEN, ODD, build_gl
from whittak.takiff import build_takiff, dual_bases, odd_form_prime
from whittak.wfinite import (
    NilCharacter,
    _even_positive_corrections,
    appendix_pairing_check,
    enumerate_multiindices,
    eta_for_fock,
    graded_nilradical,
    hat_eta,
    multiindex_key,
    nil_character,
    nilchar_from_e,
    pairing_word_check,
    regularity_check,
    root_pairing,
    solve_dual_elements,
    verify_skryabin_conditions,
    whittaker_vectors,
    zeta_from_chi,
)


def unit(alg, label):
    return SparseVector.unit(alg.labels.index(label))


def gl12_principal():
    a, rd = build_gl(1, 2)
    t, _ = build_takiff(a, rd)
    e = unit(a, "E_21") + unit(a, "E_32")
    h = unit(a, "E_33") - unit(a, "E_11")
    g = graded_nilradical(t, h)
    return a, rd, t, g, e, h


def gl23_principal():
    a, rd = build_gl(2, 3)
    t, _ = build_takiff(a, rd)
    e = sum((unit(a, f"E_{k + 1}{k}") for k in range(2, 5)), unit(a, "E_21"))
    h = SparseVector(
        {
            a.labels.index(f"E_{k}{k}"): Scalar(k - 3)
            for k in range(1, 6)
        }
    )
    g = graded_nilradical(t, h)
    return a, rd, t, g, e, h


class TestNilCharacter:
    def test_odd_value_rejected(self):
        a, rd = build_gl(1, 1)
        odd_idx = a.labels.index("E_12")
        with pytest.raises(ValueError):
            nil_character(a, (odd_idx,), {odd_idx: ONE})

    def test_unclosed_domain_rejected(self):
        a, _ = build_gl(2, 0)
        i, j = a.labels.index("E_12"), a.labels.index("E_21")
        with pytest.raises(ValueError):
            nil_character(a, (i, j), {})

    def test_character_property_enforced(self):
        a, _ = build_gl(3, 0)
        dom = tuple(a.labels.index(l) for l in ("E_12", "E_23", "E_13"))
        ok = nil_character(a, dom, {a.labels.index("E_12"): ONE})
        assert ok.value(a.labels.index("E_12")) == ONE
        with pytest.raises(ValueError):
            nil_character(a, dom, {a.labels.index("E_13"): ONE})


class TestChiFromE:
    def test_gl12_values(self):
        a, rd, t, g, e, h = gl12_principal()
        chi = nilchar_from_e(t, g, e)
        # barred degree -1 odd-root vectors paired with e
        assert chi.value(t.theta(a.labels.index("E_12"))) == ONE
        assert chi.value(t.theta(a.labels.index("E_23"))) == -ONE
        assert chi.value(t.theta(a.labels.index("E_13"))) == ZERO
        for k in g.m_indices:
            if k < t.n1:
                assert chi.value(k) == ZERO

    def test_osp_quintuple_pairing(self):
        # chi(f (x) theta) = (e|f) != 0 for the principal quintuple
        a, rd, t, g, e, h = gl12_principal()
        chi = nilchar_from_e(t, g, e)
        f = unit(a, "E_23") - unit(a, "E_12")
        assert chi.value_of(t.embed(f, 1)) == Scalar(-2)
        assert a.form_pair(e, f) == Scalar(-2)

    def test_wrong_degree_rejected(self):
        a, rd, t, g, e, h = gl12_principal()
        with pytest.raises(ValueError):
            nilchar_from_e(t, g, unit(a, "E_31"))  # even, wrong degree too

    def test_even_e_rejected(self):
        a, rd, t, g, e, h = gl12_principal()
        bad = unit(a, "E_13")
        with pytest.raises(ValueError):
            nilchar_from_e(t, g, bad)


class TestGradedNilradical:
    def test_gl12_layout(self):
        a, rd, t, g, e, h = gl12_principal()
        assert len(g.m_indices) == 6
        assert set(g.d) == {1, 2}
        # evens first in the u-order
        parities = [t.total.parity[u] for u in g.u_indices]
        assert parities == sorted(parities)
        for u in g.u_indices:
            assert g.degrees[u] <= -1

    def test_gl23_layout(self):
        a, rd, t, g, e, h = gl23_principal()
        # 10 positive roots, barred and unbarred
        assert len(g.m_indices) == 20


class TestSolveDuals:
    def test_gl12_duals(self):
        a, rd, t, g, e, h = gl12_principal()
        duals = solve_dual_elements(t, g, e)
        assert len(duals) == 6
        for j, u in enumerate(g.u_indices):
            d = -g.degrees[u]
            for k in duals[j].entries:
                assert g.degrees[k] == d - 1
                assert t.total.parity[k] == t.total.parity[u]

    def test_pairing_matrix_full_rank_oracle(self):
        # independent dense row reduction of the pairing rows
        a, rd, t, g, e, h = gl12_principal()
        ws = [t.total.bracket(t.embed(e, 0), SparseVector.unit(u)) for u in g.u_indices]
        cands = [k for k in range(t.total.dim) if k != t.z_index]
        dense = []
        for w in ws:
            row = []
            for k in cands:
                s = odd_form_prime(t, w, SparseVector.unit(k))
                row.append((s.re, s.im))
            dense.append(row)
        assert rref_dense(dense) == len(g.u_indices)

    def test_zero_e_rejected(self):
        a, rd, t, g, e, h = gl12_principal()
        with pytest.raises(ValueError):
            solve_dual_elements(t, g, SparseVector())

    @pytest.mark.parametrize("build", [gl12_principal, gl23_principal])
    def test_skryabin_conditions(self, build):
        a, rd, t, g, e, h = build()
        chi = nilchar_from_e(t, g, e)
        duals = solve_dual_elements(t, g, e)
        rep = verify_skryabin_conditions(g, chi, duals)
        assert rep.passed, rep.to_dict()

    def test_zero_phi_fails_diagonal(self):
        a, rd, t, g, e, h = gl12_principal()
        duals = solve_dual_elements(t, g, e)
        zero_phi = nil_character(t.total, g.m_indices, {})
        rep = verify_skryabin_conditions(g, zero_phi, duals)
        assert not rep.passed
        assert not rep.checks[0].passed

    def test_swapped_duals_leave_degree_minus_one(self):
        # x_0 and x_1 swapped: u_0 and u_1 have degrees -2 and -1, so [u_0, x_1] leaves degree -1
        a, rd, t, g, e, h = gl12_principal()
        duals = solve_dual_elements(t, g, e)
        assert [g.degrees[u] for u in g.u_indices[:2]] == [-2, -1]
        rep = verify_skryabin_conditions(g, nilchar_from_e(t, g, e), [duals[1], duals[0], *duals[2:]])
        assert rep.checks[0].witness == "[u_0, x_0] is not in degree -1 of the negative part"

    def test_deep_support_fails_condition3(self):
        a, rd, t, g, e, h = gl12_principal()
        duals = solve_dual_elements(t, g, e)
        deep = a.labels.index("E_13")  # even root vector, degree -2
        assert g.degrees[deep] == -2
        # such a functional is not a character; inject it unchecked
        phi = NilCharacter(t.total, g.m_indices, {deep: ONE})
        rep = verify_skryabin_conditions(g, phi, duals)
        assert not rep.checks[2].passed


class TestHatAndZeta:
    def test_gl21_hat_value(self):
        a, rd = build_gl(2, 1)
        t, _ = build_takiff(a, rd)
        odd = [i for i in rd.simple if rd.roots[i].parity == ODD]
        bar = [t.theta(rd.roots[i].space[0]) for i in odd]
        eta = nil_character(t.total, tuple(bar), {bar[0]: ONE, bar[1]: ONE})
        hatted = hat_eta(t, eta, ONE)
        e13 = a.labels.index("E_13")
        pairing = root_pairing(a, rd)(rd.roots[odd[0]].covector, rd.roots[odd[1]].covector)
        assert pairing == ONE
        assert hatted.value(e13) == ONE  # (a1|a2) eta eta / c with unit bracket
        # restriction to the barred radical is eta itself
        for b in bar:
            assert hatted.value(b) == ONE

    @pytest.mark.parametrize("mn", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (2, 3)])
    def test_root_pairing_matches_orthonormal_cartan(self, mn):
        # sum over an orthonormal Cartan basis h of (alpha . h)(beta . h)
        a, rd = build_gl(*mn)
        hs = [[h.get(x) for x in rd.cartan] for h in dual_bases(a, rd).H]

        def on(cov, h):
            return sum((c * s for c, s in zip(cov, h)), ZERO)

        pairing = root_pairing(a, rd)
        for r1 in rd.roots:
            for r2 in rd.roots:
                want = sum((on(r1.covector, h) * on(r2.covector, h) for h in hs), ZERO)
                assert pairing(r1.covector, r2.covector) == want

    def test_root_pairing_degenerate_cartan_raises(self):
        a, rd = build_gl(1, 1)
        cartan = set(rd.cartan)
        a.form = SparseMatrix(
            a.dim, a.dim, {k: s for k, s in a.form.entries.items() if not cartan >= set(k)}
        )
        cov = rd.roots[0].covector
        pairing = root_pairing(a, rd)  # the Gram matrix is inverted at the first pairing, not here
        with pytest.raises(ValueError, match="singular"):
            pairing(cov, cov)

    def test_zero_eta_hats_to_zero(self):
        a, rd = build_gl(2, 1)
        t, _ = build_takiff(a, rd)
        eta = nil_character(t.total, tuple(t.theta(rd.roots[i].space[0]) for i in rd.positive if rd.roots[i].parity == ODD), {})
        hatted = hat_eta(t, eta, ONE)
        assert not hatted.values

    def test_support_outside_simples_rejected(self):
        a, rd = build_gl(2, 2)
        t, _ = build_takiff(a, rd)
        non_simple_odd = next(
            i for i in rd.positive if rd.roots[i].parity == ODD and i not in rd.simple
        )
        bar = t.theta(rd.roots[non_simple_odd].space[0])
        domain = tuple(
            t.theta(rd.roots[i].space[0]) for i in rd.positive if rd.roots[i].parity == ODD
        )
        eta = nil_character(t.total, domain, {bar: ONE})
        with pytest.raises(ValueError):
            hat_eta(t, eta, ONE)

    def test_zeta_zero_chi(self):
        a, rd, t, g, e, h = gl12_principal()
        chi = nil_character(t.total, g.m_indices, {})
        zeta = zeta_from_chi(t, chi, ONE)
        assert not zeta.values

    def test_zeta_unbarred_chi_passthrough(self):
        # chi vanishing on the barred part: zeta is the plain restriction
        a, rd = build_gl(2, 0)
        t, _ = build_takiff(a, rd)
        e12 = a.labels.index("E_12")
        dom = tuple([e12] + [t.theta(r.space[0]) for r in rd.positive_roots()])
        chi = nil_character(t.total, dom, {e12: Scalar(5)})
        zeta = zeta_from_chi(t, chi, ONE)
        assert zeta.value(e12) == Scalar(5)

    def test_gl21_principal_zeta_value(self):
        # frozen from the structure constants: zeta(E_13) = 1/c
        a, rd = build_gl(2, 1)
        t, _ = build_takiff(a, rd)
        e = unit(a, "E_21") + unit(a, "E_32")
        h = unit(a, "E_33") - unit(a, "E_11")
        g = graded_nilradical(t, h)
        chi = nilchar_from_e(t, g, e)
        c = Scalar(3)
        chi_even = nil_character(
            t.total,
            tuple(sorted(set(k for k in g.m_indices if t.total.parity[k] == 0))),
            {k: v for k, v in chi.values.items() if t.total.parity[k] == 0},
        )
        zeta = zeta_from_chi(t, chi_even, c)
        e13 = a.labels.index("E_13")
        assert zeta.value(e13) == ONE / c

    def test_zeta_of_hat_eta_cancels(self):
        # the corrected character of a hat extension vanishes identically
        a, rd = build_gl(2, 1)
        t, _ = build_takiff(a, rd)
        odd = [i for i in rd.simple if rd.roots[i].parity == ODD]
        bar = [t.theta(rd.roots[i].space[0]) for i in odd]
        c = Scalar(2)
        for v1, v2 in [(ONE, ONE), (Scalar(2), I), (Scalar(-3), Scalar(Fraction(1, 2)))]:
            eta = nil_character(t.total, tuple(bar), {bar[0]: v1, bar[1]: v2})
            hatted = hat_eta(t, eta, c)
            zeta = zeta_from_chi(t, hatted, c)
            assert not zeta.values


class TestRegularity:
    def test_principal_gl12_regular(self):
        a, rd, t, g, e, h = gl12_principal()
        chi = nilchar_from_e(t, g, e)
        chi_even = nil_character(
            t.total,
            tuple(k for k in g.m_indices if t.total.parity[k] == 0),
            {k: v for k, v in chi.values.items() if t.total.parity[k] == 0},
        )
        zeta = zeta_from_chi(t, chi_even, ONE)
        rep = regularity_check(zeta, rd)
        assert rep.passed, rep.to_dict()

    def test_zero_zeta_not_regular(self):
        a, rd = build_gl(2, 1)
        t, _ = build_takiff(a, rd)
        e13 = a.labels.index("E_13")
        zeta = nil_character(a, (e13,), {})
        rep = regularity_check(zeta, rd)
        assert not rep.passed

    def test_gl21_even_simple_splits(self):
        a, rd = build_gl(2, 1)
        e13 = a.labels.index("E_13")
        zeta = nil_character(a, (e13,), {e13: ONE})
        rep = regularity_check(zeta, rd)
        assert rep.passed
        assert rep.data["simple_even_roots"] == 1


class TestMultiIndices:
    def test_enumeration_bounds(self):
        idxs = enumerate_multiindices([1, 2], [False, True], 3)
        assert (0, 0) in idxs and (3, 0) in idxs and (1, 1) in idxs
        assert all(a[1] <= 1 for a in idxs)
        assert all(a[0] + 2 * a[1] <= 3 for a in idxs)

    def test_order_weight_then_size_desc(self):
        ds = [1, 2]
        idxs = enumerate_multiindices(ds, [False, False], 2)
        idxs.sort(key=lambda a: multiindex_key(a, ds))
        assert idxs.index((2, 0)) < idxs.index((0, 1))
        assert idxs[0] == (0, 0)


def gl12_twisted_fock(c=ONE):
    a, rd, t, g, e, h = gl12_principal()
    chi = nilchar_from_e(t, g, e)
    eta = eta_for_fock(t, chi)
    f = build_fock(t, c, eta)
    return a, rd, t, g, e, chi, f


class TestPrincipalTwistedModule:
    def test_lift_is_an_action_on_the_principal_module(self):
        # the module behind the pairing and solver checks carries a true
        # action: both lift identities hold exactly on it
        from whittak.fockrep import verify_lift_identities

        a, rd, t, g, e, chi, f = gl12_twisted_fock()
        rep = verify_lift_identities(f, max_degree=1)
        assert rep.passed, rep.to_dict()

    def test_vacuum_covariance_value(self):
        # the unbarred even root vector acts on the vacuum by the hat value
        from whittak.fockrep import verify_whittaker_covariance

        a, rd, t, g, e, chi, f = gl12_twisted_fock()
        (even_slot,) = [i for i, r in enumerate(rd.positive_roots()) if r.parity == 0]
        pos = rd.positive_roots()
        odd = [i for i, r in enumerate(pos) if r.parity == ODD]
        pairing = root_pairing(a, rd)(pos[odd[0]].covector, pos[odd[1]].covector)
        assert pairing == -ONE  # frozen for gl(1|2)
        eta1 = chi.value(t.theta(pos[odd[0]].space[0]))
        eta2 = chi.value(t.theta(pos[odd[1]].space[0]))
        assert (eta1, eta2) == (ONE, -ONE)
        want = pairing * eta1 * eta2 / f.c  # [E_a1, E_a2] = E_13 with unit coefficient
        rep = verify_whittaker_covariance(f, {even_slot: want})
        assert rep.passed, rep.to_dict()


class TestWhittakerSolver:
    def test_untwisted_contains_vacuum_line(self):
        a, rd = build_gl(1, 1)
        t, _ = build_takiff(a, rd)
        f = build_fock(t, ONE)
        barred = tuple(t.theta(r.space[0]) for r in rd.positive_roots())
        phi = nil_character(t.total, barred, {})
        wb = whittaker_vectors(f, phi, 2)
        assert wb.dimension >= 1
        # the vacuum lies in the solution span
        span = EchelonSpan()
        keys = {}
        for v in wb.vectors:
            span.add(SparseVector({keys.setdefault(k, len(keys)): s for k, s in v.items()}))
        vac = next(iter(f.vacuum().terms))
        assert vac in keys
        assert span.coordinates(SparseVector({keys[vac]: ONE})) is not None

    def test_full_radical_covariance_is_empty_on_twisted_fock(self):
        # no strict eigenvector exists over the whole negative part: the
        # equivalence sends the twisted Fock module to the trivial module of
        # the base algebra, which is zeta-Whittaker only for zeta = 0, and
        # here zeta(E_13) = -1/c != 0
        a, rd, t, g, e, chi, f = gl12_twisted_fock()
        for trunc in (1, 2, 3):
            wb = whittaker_vectors(f, chi, trunc)
            assert wb.dimension == 0

    def test_even_part_matched_character_dimension(self):
        # matched hat character on the even radical: its zeta is 0, so the
        # solution space is one copy of the Clifford factor (the Clifford
        # words on the vacuum), stable across truncations 3 and 4
        a, rd, t, g, e, chi, f = gl12_twisted_fock()
        eta_dom = tuple(
            t.theta(rd.roots[i].space[0]) for i in rd.positive if rd.roots[i].parity == ODD
        )
        eta = nil_character(t.total, eta_dom, {k: chi.value(k) for k in eta_dom})
        hatted = hat_eta(t, eta, f.c)
        wb4 = whittaker_vectors(f, hatted, 4)
        wb3 = whittaker_vectors(f, hatted, 3)
        assert wb3.dimension == 4 and wb4.dimension == 4
        assert wb4.stable
        assert wb4.report.passed

    def test_mismatched_character_dimension_zero(self):
        a, rd, t, g, e, chi, f = gl12_twisted_fock()
        # chi restricted to the even radical but with the unbarred values
        # dropped is mismatched against the module's own covariance
        dom_even = tuple(k for k in g.m_indices if t.total.parity[k] == 0)
        mism = nil_character(t.total, dom_even, {k: chi.value(k) for k in dom_even})
        wb = whittaker_vectors(f, mism, 2)
        assert wb.dimension == 0


class TestWordPairing:
    @staticmethod
    def barred_words():
        """(f, us, xs, ds, odd_mask, phis, v) of the barred radical on the twisted gl(1|2) Fock
        module: u_s = Ebar_s, x_s = scaled Fbar_s, evens first, v the vacuum."""
        a, rd, t, g, e, chi, f = gl12_twisted_fock()
        pos, offsets = rd.positive_roots(), rd.positive_offsets()
        # evens first in the extended algebra: barred odd-root vectors are even
        order = sorted(range(len(pos)), key=lambda i: (pos[i].parity ^ 1, i))
        us, xs, ds, odd_mask, phis = [], [], [], [], []
        for i in order:
            bar_idx = t.theta(pos[i].space[0])
            us.append(SparseVector.unit(bar_idx))
            # [Ebar_i, s Fbar_i] = s (-1)^p(E_i) c as operators
            scale = (Scalar(-1) if pos[i].parity == ODD else ONE) / f.c
            xs.append(t.embed(f.dual.F[i], 1).scale(scale))
            odd_mask.append(t.total.parity[bar_idx] == 1)
            phis.append(chi.value(bar_idx))
            ds.append(sum(offsets[i]))
        return f, us, xs, ds, odd_mask, phis, f.vacuum()

    @pytest.mark.parametrize(
        "fault, want",
        [
            # zeroed duals: every word with an x letter kills v
            ("zero duals", ("u^(0, 1, 0) x^(0, 1, 0) v = 0", None)),
            # the u and x words swapped: x_s creates, so u^a x^a v leaves the vacuum line
            (
                "swapped roles",
                ("u^(0, 1, 0) x^(0, 1, 0) v is not a nonzero multiple of v", "u^(0, 1, 0) x^(0, 0, 0) v != 0"),
            ),
            # x_0 added to x_1: u_0 x_1 v = v, though (1, 0, 0) comes after (0, 1, 0)
            ("x_0 in x_1", (None, "u^(1, 0, 0) x^(0, 1, 0) v != 0")),
        ],
    )
    def test_planted_faults_fail(self, fault, want):
        rep = pairing_word_check(*self.planted_words(fault), 3)
        assert tuple(c.witness for c in rep.checks) == want

    @classmethod
    def planted_words(cls, fault):
        """barred_words() with one planted fault, or none when fault is None."""
        f, us, xs, ds, odd_mask, phis, v = cls.barred_words()
        if fault == "zero duals":
            xs = [SparseVector()] * len(xs)
        elif fault == "swapped roles":
            us, xs = xs, us
        elif fault == "x_0 in x_1":
            xs = [xs[0], xs[1] + xs[0], *xs[2:]]
        return f, us, xs, ds, odd_mask, phis, v

    @pytest.mark.parametrize("fault", [None, "zero duals", "swapped roles", "x_0 in x_1"])
    @pytest.mark.parametrize("weight, pairs", [(2, 28), (3, 91), (4, 231)])
    def test_matches_reference(self, fault, weight, pairs):
        """The check that stops its triangle at the first witness reports what the one that ran
        every pair did: the same verdicts, witnesses, diagonal scalars and pair count."""
        words = self.planted_words(fault)
        rep = pairing_word_check(*words, weight)
        assert rep.passed == (fault is None)
        assert rep.data["pairs_checked"] == pairs
        assert rep.to_dict() == reference_pairing_word_check(*words, weight).to_dict()

    def test_barred_heisenberg_clifford_instance(self):
        """Triangular pairing on the twisted Fock over the barred radical.

        u_s = Ebar_s (shifted by eta) against x_s = scaled Fbar_s: annihilator
        shifts against creators, normalized so [u_s, x_s] acts as the
        identity. The diagonal scalar then has the closed form prod a_s! over
        the even slots, and all higher words vanish.
        """
        import ast

        f, us, xs, ds, odd_mask, phis, v = self.barred_words()
        assert odd_mask == [False, False, True]
        assert ds == [1, 1, 2]
        rep = pairing_word_check(f, us, xs, ds, odd_mask, phis, v, 3)
        assert rep.passed, rep.to_dict()
        assert rep.data["diagonal_scalars"]
        # frozen diagonal values: product of factorials over the even slots
        for key, val in rep.data["diagonal_scalars"].items():
            exps = ast.literal_eval(key)
            want = ONE
            for s, k in enumerate(exps):
                if not odd_mask[s]:
                    want = want * Scalar(math.factorial(k))
            assert Scalar.parse(val) == want

    def test_appendix_check_errors_without_whittaker_vector(self):
        a, rd, t, g, e, chi, f = gl12_twisted_fock()
        duals = solve_dual_elements(t, g, e)
        with pytest.raises(ValueError, match="no Whittaker vector"):
            appendix_pairing_check(f, g, chi, duals, max_weight=2, find_trunc=2)


def gl11_twisted_fock():
    """gl(1|1) with e = E_21: its chi and the Fock module twisted by it (zeta = 0)."""
    a, rd = build_gl(1, 1)
    t, _ = build_takiff(a, rd)
    half = Scalar(Fraction(1, 2))
    g = graded_nilradical(t, unit(a, "E_22").scale(half) - unit(a, "E_11").scale(half))
    chi = nilchar_from_e(t, g, unit(a, "E_21"))
    return t, chi, build_fock(t, ONE, eta_for_fock(t, chi))


def _same_span(us, vs):
    span = EchelonSpan()
    for u in us:
        span.add(u)
    return len(span) == len(us) == len(vs) and all(span.coordinates(v) is not None for v in vs)


class TestWhittakerSingleSolve:
    """One elimination gives both truncations; compared with solving each alone."""

    def check(self, module, phi, truncs):
        for trunc in truncs:
            wb = whittaker_vectors(module, phi, trunc)
            assert _same_span(wb.vectors, whittaker_kernel(module, phi, trunc))
            prev = len(whittaker_kernel(module, phi, trunc - 1)) if trunc > 0 else 0
            assert wb.prev_dimension == prev == wb.report.data["previous_dimension"]
            assert wb.stable == (wb.dimension == prev)
            assert wb.report.passed

    def test_twisted_gl11_fock(self):
        t, chi, f = gl11_twisted_fock()
        self.check(f, chi, (1, 2, 3, 4))

    def test_natural_tensor_fock_gl11(self):
        a, rd = build_gl(1, 1)
        t, _ = build_takiff(a, rd)
        tm = TensorModule(natural_module(a, 1, 1), build_fock(t, Scalar(2)))
        barred = tuple(t.theta(r.space[0]) for r in rd.positive_roots())
        self.check(tm, nil_character(t.total, barred, {}), (0, 1, 2))

    def test_hat_matched_even_part_character(self):
        a, rd, t, g, e, chi, f = gl12_twisted_fock()
        eta_dom = tuple(
            t.theta(rd.roots[i].space[0]) for i in rd.positive if rd.roots[i].parity == ODD
        )
        eta = nil_character(t.total, eta_dom, {k: chi.value(k) for k in eta_dom})
        self.check(f, hat_eta(t, eta, f.c), (3, 4))


class TestTensorWordPairing:
    def test_natural_tensor_fock_matches_bare_fock(self):
        # the barred words act on the Fock factor only, and row 0 of the
        # natural module is even, so the pairing report is the bare module's
        t, chi, f = gl11_twisted_fock()
        a, rd = t.base, t.rd
        tm = TensorModule(natural_module(a, 1, 1), f)
        pos, offsets = rd.positive_roots(), rd.positive_offsets()
        us, xs, ds, odd_mask, phis = [], [], [], [], []
        for i, r in enumerate(pos):
            bar = t.theta(r.space[0])
            us.append(SparseVector.unit(bar))
            xs.append(t.embed(f.dual.F[i], 1).scale((-ONE if r.parity == ODD else ONE) / f.c))
            ds.append(sum(offsets[i]))
            odd_mask.append(t.total.parity[bar] == ODD)
            phis.append(chi.value(bar))
        bare = pairing_word_check(f, us, xs, ds, odd_mask, phis, f.vacuum(), 3)
        assert bare.passed and bare.data["pairs_checked"] > 1
        tensor = pairing_word_check(tm, us, xs, ds, odd_mask, phis, tm.vacuum_line()[0], 3)
        assert tensor.to_dict() == bare.to_dict()


@pytest.mark.parametrize("m, n, words", [(2, 1, 4), (2, 3, 8), (3, 2, 8)])
def test_principal_whittaker_answers(m, n, words):
    """Criterion 11's answers on the larger principal gl(m|n), at truncation 4.

    zeta of the full-radical character is nonzero and regular, so that
    character has no Whittaker vector; the hat-matched character has zeta = 0,
    and its Whittaker space is stable and spanned by the Clifford words on the
    twisted vacuum. The systems reach 11,898 x 1,666 on gl(2|3).
    """
    _, rd, t, _, _, chi, f, zeta = twisted_principal(m, n, ONE)
    assert zeta.values and regularity_check(zeta, rd).passed
    assert whittaker_vectors(f, chi, 4).dimension == 0
    dom = barred_odd_domain(t, rd)
    hatted = hat_eta(t, nil_character(t.total, dom, {k: chi.value(k) for k in dom}), f.c)
    assert not zeta_from_chi(t, hatted, f.c).values
    wb = whittaker_vectors(f, hatted, 4)
    cliff = clifford_words(f)
    assert len(cliff) == clifford_module_dim(len(rd.cartan), True) == words
    assert wb.dimension == words and wb.stable
    assert same_span(wb.vectors, cliff)


class TestRootRules:
    """The zeta corrections and the regularity check read odd-simple pairs and simple even roots off
    `positive_offsets`, and agree with the covector-sum and covector-difference scans they replaced."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _takiff(shape):
        a, rd = osp12_closure() if shape == "osp(1|2)" else build_gl(*shape)
        return build_takiff(a, rd)[0]

    @staticmethod
    def _agree(t, c, values):
        """Where `positive_offsets` succeeds, the corrections and the regularity report equal the
        scans'; where it raises, both raise its error."""
        rd = t.rd
        evens = [r.space[0] for r in rd.positive_roots() if r.parity == EVEN]
        zeta = NilCharacter(t.base, tuple(evens), {k: v for k, v in zip(evens, values) if v})
        try:
            rd.positive_offsets()
        except ValueError as exc:
            for call in (lambda: _even_positive_corrections(t, c), lambda: regularity_check(zeta, rd)):
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    call()
            return
        assert _even_positive_corrections(t, c) == reference_even_positive_corrections(t, c)
        assert regularity_check(zeta, rd).to_dict() == reference_regularity_check(zeta, rd).to_dict()

    @pytest.mark.parametrize("shape", [*_GL_SHAPES, "osp(1|2)"], ids=str)
    def test_own_simples_match_covector_scans(self, shape):
        t = self._takiff(shape)
        for value in (ZERO, ONE):
            self._agree(t, ONE + I, [value] * len(t.rd.positive))

    def test_four_times_an_odd_simple_is_no_pair(self):
        # osp(1|2) with its even roots +-2 alpha relabelled +-4 alpha: the one simple even root's
        # offset is 4 e_a, so it has no odd-simple pair, although [X_a, X_a] is its root vector
        t = copy.copy(self._takiff("osp(1|2)"))
        roots = [r._replace(covector=(r.covector[0] + r.covector[0],)) if r.parity == EVEN else r for r in t.rd.roots]
        t.rd = t.rd._replace(roots=tuple(roots))
        assert t.rd.positive_offsets() == [(1,), (4,)]
        self._agree(t, ONE, [ONE, ONE])
        assert _even_positive_corrections(t, ONE)[0][1] is None

    @given(st.sampled_from([*_GL_SHAPES, "osp(1|2)"]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_covector_scans(self, shape, data):
        t = copy.copy(self._takiff(shape))
        if shape != "osp(1|2)":
            # the Borel of a drawn row order, so that the own simples are those of any positive system
            t.rd = borel_root_datum(*shape, data.draw(st.permutations(range(sum(shape)))))[1]
        # the datum's own simples, or any few positive roots in their place
        others = st.lists(st.sampled_from(t.rd.positive), unique=True, max_size=len(t.rd.simple) + 1)
        simple = data.draw(st.just(t.rd.simple) | others.map(tuple) if t.rd.positive else st.just(t.rd.simple))
        t.rd = t.rd._replace(simple=simple)
        values = [data.draw(st.sampled_from([ZERO, ONE, -ONE, ONE + I])) for _ in t.rd.positive]
        self._agree(t, data.draw(st.sampled_from(_LEVELS)), values)

    def test_osp12_pair_is_twice_one_odd_simple(self):
        t = self._takiff("osp(1|2)")
        ((bidx, (b1, b2, _)),) = _even_positive_corrections(t, ONE)
        assert t.base.parity[bidx] == EVEN and b1 == b2 == t.theta(t.rd.roots[t.rd.simple[0]].space[0])
        rep = regularity_check(NilCharacter(t.base, (bidx,), {bidx: ONE}), t.rd)
        assert rep.passed and rep.data["simple_even_roots"] == 1

    def test_one_gram_inverse_per_call(self, monkeypatch):
        a, rd, t, g, e, chi = principal_data(2, 3)
        calls = []
        monkeypatch.setattr(wfinite, "invert", lambda m: calls.append(m) or invert(m))
        zeta = zeta_from_chi(t, chi, ONE)
        assert len(calls) == 1
        assert regularity_check(zeta, rd).passed
        assert len(calls) == 2


class TestDualElementRows:
    @pytest.mark.parametrize("mn", [(1, 2), (2, 1), (2, 3), (3, 2)])
    def test_duals_match_pairwise_reference(self, mn):
        a, rd, t, g, e, chi = principal_data(*mn)
        assert solve_dual_elements(t, g, e) == reference_solve_dual_elements(t, g, e)

"""Fock modules: generator relations, lifts, highest weight, tensor products."""

import functools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_engines import (
    ReferenceFock,
    reference_apply_lift,
    reference_barred_commutators,
    reference_basis_keys,
    reference_fock_guards,
    reference_lift_table,
    reference_verify_lift_identities,
    reference_verify_relations,
    reference_verify_whittaker_covariance,
)
from modules import TensorModule, borel_root_datum, cyclicity_spot_check, natural_module
from test_acceptance import barred_odd_domain, principal_data
from whittak.exactlin import I, ONE, ZERO, Scalar, SparseMatrix, SparseVector
from whittak.fockrep import (
    FockModule,
    ModuleVector,
    _check_barred_relations,
    _normal_order,
    build_fock,
    clifford_module_dim,
    verify_highest_weight,
    verify_lift_identities,
    verify_whittaker_covariance,
)
from whittak.superalg import EVEN, ODD, SuperAlgebra, build_gl, weyl_vector
from whittak.takiff import build_takiff
from whittak.wfinite import eta_for_fock, hat_eta, nil_character

half = Scalar(Fraction(1, 2))


def fock(m, n, c, eta=None):
    a, rd = build_gl(m, n)
    t, _ = build_takiff(a, rd)
    return build_fock(t, c, eta)


def cartan_dual_pairing(f, cov1, cov2):
    """(alpha|beta) on the weight space via the orthonormal Cartan basis."""
    pos_of = {h: k for k, h in enumerate(f.rd.cartan)}
    acc = ZERO
    for h in f.dual.H:
        a1 = sum((cov1[pos_of[t]] * s for t, s in h.items()), ZERO)
        a2 = sum((cov2[pos_of[t]] * s for t, s in h.items()), ZERO)
        acc = acc + a1 * a2
    return acc


class TestBuild:
    def test_zero_level_rejected(self):
        with pytest.raises(ValueError):
            fock(1, 1, ZERO)

    def test_twist_on_even_root_rejected(self):
        a, rd = build_gl(2, 1)
        t, _ = build_takiff(a, rd)
        even_slot = next(
            i for i, r in enumerate(rd.positive_roots()) if r.parity == 0
        )
        with pytest.raises(ValueError):
            build_fock(t, ONE, {even_slot: ONE})

    def test_clifford_letter_count(self):
        # realized Clifford factor matches the dimension formula
        for (m, n), ell in (((1, 1), 2), ((2, 1), 3), ((2, 2), 4), ((1, 2), 3)):
            f = fock(m, n, ONE)
            n_cliff = sum(kind == "cliff" for kind, _ in f.letters)
            assert 2 ** n_cliff == clifford_module_dim(ell, True)


class TestCliffordDim:
    def test_formula(self):
        assert clifford_module_dim(2, True) == 2
        assert clifford_module_dim(3, True) == 4
        assert clifford_module_dim(6, True) == 8
        for ell in range(7):
            assert clifford_module_dim(ell, False) == 1
            assert clifford_module_dim(ell, True) == 2 ** ((ell + 1) // 2)


class TestBarredRelations:
    def test_gl11_creation_and_contraction(self):
        f = fock(1, 1, ONE)
        vac = f.vacuum()
        created = f.apply_barred(f.dual.F[0], vac)
        (idx, coeff), = created.items()
        assert idx == (1, 0) and coeff == ONE  # E_12 letter, then the b1 letter
        # odd root: Ebar Fbar |0> = (-1)^p(E) c |0> = -c|0>
        back = f.apply_barred(f.dual.E[0], created)
        assert back == vac.scale(-f.c)

    @pytest.mark.parametrize("m,n,c", [(1, 1, Scalar(1)), (2, 1, Scalar(2)), (1, 2, Scalar(-1, 1))])
    def test_relations_hold(self, m, n, c):
        # the operator loop on built modules, untwisted and twisted on every odd positive root
        a, rd = build_gl(m, n)
        odd = [i for i, r in enumerate(rd.positive_roots()) if r.parity == ODD]
        for eta in (None, {i: Scalar(k + 2, 1 - k) for k, i in enumerate(odd)}):
            f = fock(m, n, c, eta)
            assert f.twisted == bool(eta)
            rep = reference_verify_relations(f, max_degree=2)
            assert rep.passed, rep.to_dict()

    def test_twisted_vacuum_eigenvalue(self):
        # (Ebar_beta - eta(Ebar_beta))|0> = 0 for a twisted odd simple
        a, rd = build_gl(2, 1)
        t, _ = build_takiff(a, rd)
        odd_slots = [i for i, r in enumerate(rd.positive_roots()) if r.parity == ODD]
        eta = {odd_slots[0]: Scalar(3), odd_slots[1]: I}
        f = build_fock(t, ONE, eta)
        vac = f.vacuum()
        for i in odd_slots:
            got = f.apply_barred(f.dual.E[i], vac)
            assert got == vac.scale(f.eta[i])


def _columns(f):
    """The adapted columns of f's slots, in slot order."""
    return f.dual.E + f.dual.F + f.a_vecs + f.b_vecs + ([f.w_vec] if f.has_w else [])


def _planted(f, t, lower):
    """f's slot table with slot t lowering by `lower`."""
    slots = list(f.slots)
    slots[t] = slots[t][:3] + (lower,)
    return slots


def _perturbed(m, n, i, j, delta, partner):
    """gl(m|n) with delta added to its form entry (i, j), and with the supersymmetric
    partner entry (j, i) changed to match when `partner` is set."""
    a, rd = build_gl(m, n)
    entries = dict(a.form.entries)
    entries[i, j] = entries.get((i, j), ZERO) + delta
    if partner and i != j:
        sgn = -ONE if a.parity[i] and a.parity[j] else ONE
        entries[j, i] = entries.get((j, i), ZERO) + sgn * delta
    return SuperAlgebra(a.name, a.labels, a.parity, a.table, SparseMatrix(a.dim, a.dim, entries)), rd


_GL_UP_TO_4 = [(m, k - m) for k in range(1, 5) for m in range(k + 1)]


class TestSlotTable:
    """The barred relations checked once, as the slot table, when a module is built."""

    @given(
        st.sampled_from(_GL_UP_TO_4),
        st.integers(0, 15),
        st.integers(0, 15),
        st.sampled_from([ONE, Scalar(-1), Scalar(Fraction(1, 2)), I]),
        st.booleans(),
        st.sampled_from([ONE, Scalar(-2, 1)]),
    )
    @example((2, 0), 0, 0, ONE, True, ONE).via("orthonormalization fails: (E_11|E_11) = 2")
    @example((1, 1), 1, 2, ONE, False, ONE).via("pairing fails: (E_12|E_21) = 2, (E_21|E_12) = -1")
    @example((1, 1), 1, 2, ONE, True, Scalar(-2, 1)).via("accepted: (E_12|E_21) = 2, (E_21|E_12) = -2")
    @settings(max_examples=150, deadline=None)
    def test_rejects_exactly_when_the_old_guards_did(self, mn, i, j, delta, partner, c):
        m, n = mn
        dim = (m + n) ** 2
        a, rd = _perturbed(m, n, i % dim, j % dim, delta, partner)
        try:
            t, _ = build_takiff(a, rd)
        except ValueError:
            return  # a degenerate form builds no extension
        try:
            reference_fock_guards(a, rd)
            want = None
        except ValueError as exc:
            want = str(exc)
        try:
            build_fock(t, c)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert (got is None) == (want is None), (got, want)
        if want is not None and not want.startswith("dual basis pairing"):
            assert got == want  # a construction error of the dual bases, raised by both

    @pytest.mark.parametrize(
        "m,n,slot,lower",
        [
            (1, 1, "a", ONE),  # a_1 lowers with c in place of 2c
            (1, 1, "E", ONE),  # the odd root E_12 lowers with c in place of (-1)^p c = -c
            (2, 1, "w", ONE),  # w lowers with c in place of c/2
        ],
    )
    def test_planted_slot_factor_raises(self, m, n, slot, lower):
        f = fock(m, n, ONE)
        npos = len(f.positives)
        t = {"E": 0, "a": 2 * npos, "w": 2 * npos + 2 * f.n_pairs}[slot]
        assert f.slots[t][3] != lower
        _check_barred_relations(f.slots, _columns(f), f.takiff, f.c)
        with pytest.raises(ValueError, match=rf"^slots \d+ and \d+ supercommute") as err:
            _check_barred_relations(_planted(f, t, lower), _columns(f), f.takiff, f.c)
        assert f"slots {t} and " in str(err.value) or f" and {t} supercommute" in str(err.value)

    def test_flipped_positive_root_parity_raises(self):
        # the slot factors read the root datum's parities, the extension the algebra's
        a, rd = build_gl(2, 1)
        for k in rd.positive:
            roots = list(rd.roots)
            roots[k] = roots[k]._replace(parity=roots[k].parity ^ 1)
            t, _ = build_takiff(a, rd._replace(roots=tuple(roots)))
            with pytest.raises(ValueError, match=r"^slots \d+ and \d+ supercommute"):
                build_fock(t, ONE)


class TestLift:
    def test_gl11_cartan_on_vacuum(self):
        f = fock(1, 1, ONE)
        vac = f.vacuum()
        h11 = SparseVector.unit(f.base.labels.index("E_11"))
        assert f.apply_lift(h11, vac) == vac.scale(-half)

    def test_positive_roots_kill_vacuum(self):
        f = fock(2, 1, ONE)
        vac = f.vacuum()
        for e in f.dual.E:
            assert not f.apply_lift(e, vac)

    @pytest.mark.parametrize(
        "m,n,c,deg",
        [
            (1, 1, Scalar(1), 3),
            (1, 1, Scalar(-1, 2), 2),
            (2, 1, Scalar(1), 1),
        ],
    )
    def test_lift_identities(self, m, n, c, deg):
        rep = verify_lift_identities(fock(m, n, c), max_degree=deg)
        assert rep.passed, rep.to_dict()

    def test_lift_identities_twisted(self):
        rep = verify_lift_identities(_twisted_gl21(Scalar(2)), max_degree=1)
        assert rep.passed, rep.to_dict()

    def test_corrupted_prefactor_caught(self):
        f = fock(1, 1, ONE)
        true_lift = FockModule.apply_lift

        def bad_lift(self, s, v):
            return true_lift(self, s, v).scale(Scalar(2))

        FockModule.apply_lift = bad_lift
        try:
            rep = verify_lift_identities(f, max_degree=1)
        finally:
            FockModule.apply_lift = true_lift
        assert not rep.passed

    def test_twisted_decomposable_root_on_vacuum(self):
        # phi_eta([E_a1, E_a2])|0> = ((a1|a2)/c) eta(Ebar_1) eta(Ebar_2) |0>
        a, rd = build_gl(2, 1)
        t, _ = build_takiff(a, rd)
        pos = rd.positive_roots()
        odd_slots = [i for i, r in enumerate(pos) if r.parity == ODD]
        eta1, eta2 = Scalar(3), Scalar(Fraction(2, 5))
        c = Scalar(7)
        f = build_fock(t, c, {odd_slots[0]: eta1, odd_slots[1]: eta2})
        x = f.base.bracket(f.dual.E[odd_slots[0]], f.dual.E[odd_slots[1]])
        assert x  # the two odd simples sum to the even root
        pairing = cartan_dual_pairing(
            f, pos[odd_slots[0]].covector, pos[odd_slots[1]].covector
        )
        assert pairing == ONE  # frozen for gl(2|1)
        got = f.apply_lift(x, f.vacuum())
        assert got == f.vacuum().scale(pairing * eta1 * eta2 / c)


class TestOperatorBookkeeping:
    def test_parity_tracking(self):
        # every operator application shifts the index parity by p(x) exactly
        f = fock(2, 1, ONE)
        t = f.takiff
        first_odd = len(f.poly_slots)  # the odd letters follow the polynomial ones
        for ix in f.basis_keys(2):
            v = ModuleVector({ix: ONE})
            for k in range(t.total.dim):
                out = f.apply_total_index(k, v)
                want = (sum(ix[first_odd:]) + t.total.parity[k]) % 2
                for jx in out.terms:
                    assert sum(jx[first_odd:]) % 2 == want

    def test_z_acts_by_level(self):
        f = fock(2, 1, Scalar(-2, 1))
        for ix in f.basis_keys(2):
            v = ModuleVector({ix: ONE})
            assert f.apply_total_index(f.takiff.z_index, v) == v.scale(f.c)

    def test_twist_is_scalar_on_barred_generators(self):
        # the twisted and untwisted actions differ by eta on the barred
        # radical generators and by nothing on the other barred generators
        a, rd = build_gl(2, 1)
        t, _ = build_takiff(a, rd)
        odd_slots = [i for i, r in enumerate(rd.positive_roots()) if r.parity == ODD]
        eta = {odd_slots[0]: Scalar(2), odd_slots[1]: I}
        f0 = build_fock(t, ONE)
        f1 = build_fock(t, ONE, eta)
        gens = (
            [("E", i, f0.dual.E[i]) for i in range(len(f0.positives))]
            + [("F", i, f0.dual.F[i]) for i in range(len(f0.positives))]
            + [("H", i, h) for i, h in enumerate(f0.dual.H)]
        )
        for ix in f0.basis_keys(2):
            v = ModuleVector({ix: ONE})
            for kind, i, x in gens:
                diff = f1.apply_barred(x, v) - f0.apply_barred(x, v)
                if kind == "E" and i in eta:
                    assert diff == v.scale(eta[i])
                else:
                    assert not diff


class TestHighestWeight:
    @pytest.mark.parametrize("m,n,c", [(1, 1, Scalar(2)), (2, 1, Scalar(1)), (2, 0, Scalar(1))])
    def test_passes(self, m, n, c):
        rep = verify_highest_weight(fock(m, n, c))
        assert rep.passed, rep.to_dict()

    def test_gl11_value(self):
        f = fock(1, 1, Scalar(2))
        assert f.rho.values[0] == -half and f.rho.values[1] == half

    def test_twisted_rejected(self):
        a, rd = build_gl(1, 1)
        t, _ = build_takiff(a, rd)
        f = build_fock(t, ONE, {0: ONE})
        with pytest.raises(ValueError):
            verify_highest_weight(f)

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 2)])
    def test_planted_faults_fail(self, m, n):
        # rho is nonzero here (it is zero on gl(2|1) and gl(1|2)), so a doubled lift moves H = E_11
        a, rd = build_gl(m, n)
        t, _ = build_takiff(a, rd)
        doubled = verify_highest_weight(_DoubledLift(t, Scalar(2)))
        assert [c.witness for c in doubled.checks] == ["H = E_11 does not act by the Weyl-vector value", None]
        created = verify_highest_weight(_CreatingTermLift(t, Scalar(2)))
        assert [c.witness for c in created.checks] == [None, "positive root vector 0 does not kill the vacuum"]


_LEVELS = [ONE, Scalar(2), Scalar(Fraction(1, 2), 1)]
_VACUUM_1 = "vacuum is not an eigenvector for even positive root 1"


@functools.lru_cache(maxsize=None)
def _covariance_data(m, n, twisted, c):
    """gl(m|n)'s extension, its principal twist (or none) and the hat-matched chi_hat."""
    if not twisted:
        a, rd = build_gl(m, n)
        return build_takiff(a, rd)[0], None, {}
    _, rd, t, _, _, chi = principal_data(m, n)
    dom = barred_odd_domain(t, rd)
    hatted = hat_eta(t, nil_character(t.total, dom, {b: chi.value(b) for b in dom}), c)
    pos = rd.positive_roots()
    chi_hat = {i: hatted.value(r.space[0]) for i, r in enumerate(pos) if r.parity == EVEN}
    return t, eta_for_fock(t, chi), chi_hat


class TestWhittakerCovariance:
    def test_twist_outside_the_simple_odd_roots(self):
        # E_14 of gl(2|3), position 2 of the positive roots, is odd and not simple; only hat_eta
        # rejects such a twist, and the height scan, sound for any twist, fails on it
        rep = verify_whittaker_covariance(fock(2, 3, ONE, {2: ONE}), {})
        assert [c.witness for c in rep.checks] == [
            "vacuum is not an eigenvector for even positive root 1",
            "term (17) of even positive root 1 shifts height by -1",
        ]

    def test_gl11_vacuous(self):
        a, rd = build_gl(1, 1)
        t, _ = build_takiff(a, rd)
        f = build_fock(t, ONE, {0: ONE})
        rep = verify_whittaker_covariance(f, {})
        assert rep.passed

    def test_gl21_values(self):
        a, rd = build_gl(2, 1)
        t, _ = build_takiff(a, rd)
        pos = rd.positive_roots()
        odd_slots = [i for i, r in enumerate(pos) if r.parity == ODD]
        (even_slot,) = [i for i, r in enumerate(pos) if r.parity == 0]
        c = Scalar(2)
        f = build_fock(t, c, {odd_slots[0]: ONE, odd_slots[1]: ONE})
        # (a1|a2) = 1 for gl(2|1), [E_a1, E_a2] = E_13 with unit coefficient
        chi_hat = {even_slot: ONE * ONE / c}
        rep = verify_whittaker_covariance(f, chi_hat)
        assert rep.passed, rep.to_dict()

    def test_zero_twist_reduces_to_highest_weight(self):
        a, rd = build_gl(2, 1)
        t, _ = build_takiff(a, rd)
        f = build_fock(t, ONE)
        rep = verify_whittaker_covariance(f, {})
        assert rep.passed

    def test_twist_outside_simples_rejected(self):
        a, rd = build_gl(2, 2)
        t, _ = build_takiff(a, rd)
        pos = rd.positive_roots()
        simples = set(rd.simple_roots())
        non_simple_odd = next(
            i for i, r in enumerate(pos) if r.parity == ODD and r not in simples
        )
        f = build_fock(t, ONE, {non_simple_odd: ONE})
        rep = verify_whittaker_covariance(f, {})
        assert [c.witness for c in rep.checks] == [
            "vacuum is not an eigenvector for even positive root 1",
            "term (11) of even positive root 1 shifts height by -1",
        ]

    @given(
        st.sampled_from([(2, 1, True), (1, 2, True), (2, 2, True), (2, 1, False), (1, 2, False),
                         (2, 2, False), (3, 1, False), (1, 3, False)]),
        st.sampled_from(_LEVELS),
        st.sampled_from(["coefficient", "quadratic", "linear", "constant", "chi_hat"]),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_height_check_implies_the_bounded_check(self, case, c, kind, data):
        # one lift-table entry or one chi_hat value perturbed; wherever the height check
        # passes, the bounded loop passes up to degree 3, where the index is at most 4 < 8
        t, eta, chi_hat = _covariance_data(*case, c)
        f, chi_hat = build_fock(t, c, eta), dict(chi_hat)
        i = data.draw(st.sampled_from(f.grass_slots))
        k = f.positives[i].space[0]
        quad, linear, const = f._lift_table(k)
        quad, linear = [(t2, list(outer)) for t2, outer in quad], list(linear)
        s = data.draw(st.sampled_from([ONE, -ONE, Scalar(2), I, Scalar(3, -1)]))
        slot = st.integers(0, len(f.slots) - 1)
        if kind == "coefficient":
            rows = [outer for _, outer in quad] + ([linear] if linear else [])
            row = data.draw(st.sampled_from(rows))
            r = data.draw(st.integers(0, len(row) - 1))
            row[r] = (row[r][0], s)
        elif kind == "quadratic":
            quad.append((data.draw(slot), [(data.draw(slot), s)]))
        elif kind == "linear":
            linear.append((data.draw(slot), s))
        elif kind == "constant":
            const = const + s
        else:
            chi_hat[i] = chi_hat.get(i, ZERO) + s
        f._lift_tables[k] = (quad, linear, const)
        rep = verify_whittaker_covariance(f, chi_hat)
        if kind in ("constant", "chi_hat"):
            # the built terms all raise height, so the vacuum sees the constant alone
            assert rep.checks[0].witness == f"vacuum is not an eigenvector for even positive root {i}"
        if rep.passed:
            ref = reference_verify_whittaker_covariance(f, chi_hat, 3)
            assert ref.passed, ref.to_dict()

    @pytest.mark.parametrize(
        "fault, want",
        [
            # root 0 (E_12, height 1) lowers through slot 0 and creates through slot 3;
            # a linear slot-3 term also moves the vacuum
            ("linear term on a creating slot",
             [_VACUUM_1, "term (3) of even positive root 1 shifts height by -1"]),
            ("doubled constant", [_VACUUM_1]),
            ("quadratic term with a zero shift", ["term (0, 3) of even positive root 1 shifts height by 0"]),
        ],
    )
    def test_planted_faults_fail(self, fault, want):
        t, eta, chi_hat = _covariance_data(2, 1, True, ONE)
        f = build_fock(t, ONE, eta)
        assert f.grass_slots == [1] and f.slots[3][2]
        k = f.positives[1].space[0]
        quad, linear, const = f._lift_table(k)
        assert const == chi_hat[1] and const
        if fault == "linear term on a creating slot":
            linear = linear + [(3, ONE)]
        elif fault == "doubled constant":
            const = const + const
        else:
            quad = quad + [(0, [(3, ONE)])]
        f._lift_tables[k] = (quad, linear, const)
        rep = verify_whittaker_covariance(f, chi_hat)
        assert [c.witness for c in rep.checks if not c.passed] == want

    def test_nilpotent_beyond_eight_steps(self):
        # eta -1 and 1 on bar E_12 and bar E_23 of gl(2|1): X - chi_hat(X) needs 9 steps on
        # x_{E_23}^7 x_{E_13}, which the bounded loop, capped at 8, took for a failure
        a, rd = build_gl(2, 1)
        t, _ = build_takiff(a, rd)
        bars = [t.theta(a.labels.index(lab)) for lab in ("E_12", "E_23")]
        eta_nc = nil_character(t.total, bars, dict(zip(bars, [-ONE, ONE])))
        f = build_fock(t, ONE, eta_for_fock(t, eta_nc))
        (i,) = f.grass_slots
        chi_hat = {i: hat_eta(t, eta_nc, ONE).value(f.positives[i].space[0])}
        assert verify_whittaker_covariance(f, chi_hat).passed
        key = (0, 7, 1, 0, 0)
        ref = reference_verify_whittaker_covariance(f, chi_hat, 8)
        assert ref.checks[1].witness == f"(X - value) not nilpotent within 8 steps at {key}"
        y = ModuleVector({key: ONE})
        for _ in range(8):
            y = f.apply_lift(f.dual.E[i], y) - y.scale(chi_hat[i])
        assert y
        assert not f.apply_lift(f.dual.E[i], y) - y.scale(chi_hat[i])


class TestTensor:
    def test_trivial_module_reproduces_fock(self):
        from whittak.exactlin import SparseMatrix

        f = fock(1, 1, ONE)
        L = natural_module(f.base, 1, 1)
        trivial = type(L)(
            f.base, 1, (0,), [SparseMatrix(1, 1) for _ in range(f.base.dim)]
        )
        tm = TensorModule(trivial, f)
        v0 = tm.vacuum_line()[0]
        for k in range(tm.takiff.total.dim):
            got = tm.apply_total_index(k, v0)
            want = f.apply_total_index(k, f.vacuum())
            assert {ix: s for (l, ix), s in got.items()} == dict(want.items())

    def test_bad_action_matrices_rejected(self):
        from whittak.exactlin import SparseMatrix

        f = fock(1, 1, ONE)
        L = natural_module(f.base, 1, 1)
        L.actions[0] = SparseMatrix(2, 2, {(0, 1): ONE})
        with pytest.raises(ValueError):
            TensorModule(L, f)

    def test_natural_module_highest_weight_shift(self):
        f = fock(1, 1, Scalar(3))
        L = natural_module(f.base, 1, 1)
        tm = TensorModule(L, f)
        v = tm.vacuum_line()[0]  # highest L-vector tensor vacuum
        rho = weyl_vector(f.rd, f.c)
        for pos, h in enumerate(f.rd.cartan):
            got = tm.apply_total_index(h, v)
            lam = (ONE if pos == 0 else ZERO) + rho.values[pos]
            assert got == v.scale(lam)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_action_is_linear_over_keys(self, data):
        # rows act at once on their Fock part; key by key must give the same
        tm = _natural_tensor_gl21()
        keys = tm.basis_keys(1)
        v = ModuleVector(data.draw(st.dictionaries(st.sampled_from(keys), _small_scalars, max_size=6)))
        k = data.draw(st.integers(0, tm.takiff.total.dim - 1))
        want = ModuleVector()
        for key, s in v.items():
            want = want + tm.apply_total_index(k, ModuleVector({key: ONE})).scale(s)
        assert tm.apply_total_index(k, v) == want

    def test_cyclicity_spot_check(self):
        f = fock(1, 1, ONE)
        L = natural_module(f.base, 1, 1)
        tm = TensorModule(L, f)
        rep = cyclicity_spot_check(tm, seed=0, samples=20)
        assert rep.passed, rep.to_dict()
        assert rep.seed == 0


@functools.lru_cache(maxsize=None)
def _natural_tensor_gl21():
    f = fock(2, 1, Scalar(Fraction(-1, 2)))
    return TensorModule(natural_module(f.base, 2, 1), f)


def _twisted_gl21(c):
    a, rd = build_gl(2, 1)
    t, _ = build_takiff(a, rd)
    odd_slots = [i for i, r in enumerate(rd.positive_roots()) if r.parity == ODD]
    return build_fock(t, c, {odd_slots[0]: ONE, odd_slots[1]: Scalar(-1)})


def _twisted_gl12(c):
    from whittak.wfinite import eta_for_fock, graded_nilradical, nilchar_from_e

    a, rd = build_gl(1, 2)
    t, _ = build_takiff(a, rd)
    lab = a.labels.index
    e = SparseVector({lab("E_21"): ONE, lab("E_32"): ONE})
    g = graded_nilradical(t, SparseVector({lab("E_33"): ONE, lab("E_11"): -ONE}))
    f = build_fock(t, c, eta_for_fock(t, nilchar_from_e(t, g, e)))
    assert f.twisted
    return f


_CHECK_LEVELS = {
    # the nonzero integers and the fractions in [-4, 4] whose reduced denominator is 2 to 5, listed
    # rather than filtered, so that no draw is rejected
    "integer": st.sampled_from([k for k in range(-4, 5) if k]).map(Scalar),
    "fraction": st.sampled_from(
        sorted({Fraction(p, q) for q in range(2, 6) for p in range(-4 * q, 4 * q + 1) if p % q})
    ).map(Scalar),
    "gaussian": st.builds(Scalar, st.integers(-3, 3), st.integers(1, 3)),
}


_ENGINE_LEVELS = {"integer": Scalar(3), "fraction": Scalar(Fraction(-1, 2)), "gaussian": Scalar(2, 1)}
_small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_small_scalars = st.builds(Scalar, _small, _small)


@functools.lru_cache(maxsize=None)
def _engine_pair(name, level):
    """The module under test, the five-branch reference engine over it, and its
    keys of degree <= 3, so that a polynomial letter lowers with a factor m > 1."""
    c = _ENGINE_LEVELS[level]
    f = _twisted_gl12(c) if name == "gl12.twisted" else fock(int(name[2]), int(name[3]), c)
    return f, ReferenceFock(f), f.basis_keys(3)


class TestOneLetterRule:
    """apply_barred against the five-branch engine it replaced. gl(2|2) has two
    Grassmann letters and two Clifford pairs, so its Koszul signs cross the
    Grassmann/Clifford boundary."""

    @given(
        st.sampled_from(["gl11", "gl21", "gl22", "gl12.twisted"]),
        st.sampled_from(sorted(_ENGINE_LEVELS)),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_apply_barred_matches_reference(self, name, level, data):
        f, ref, keys = _engine_pair(name, level)
        x = SparseVector(
            data.draw(st.dictionaries(st.integers(0, f.base.dim - 1), _small_scalars, max_size=4))
        )
        v = ModuleVector(data.draw(st.dictionaries(st.sampled_from(keys), _small_scalars, max_size=5)))
        assert f.apply_barred(x, v) == ref.apply_barred(x, v)


class TestLiftTable:
    """apply_lift from the compiled tables against the dual-basis sum it replaced."""

    @given(
        st.sampled_from(["gl11", "gl21", "gl12.twisted"]),
        st.sampled_from(sorted(_ENGINE_LEVELS)),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_apply_lift_matches_reference(self, name, level, data):
        f, _, keys = _engine_pair(name, level)
        s = SparseVector(
            data.draw(st.dictionaries(st.integers(0, f.base.dim - 1), _small_scalars, max_size=4))
        )
        v = ModuleVector(data.draw(st.dictionaries(st.sampled_from(keys), _small_scalars, max_size=5)))
        assert f.apply_lift(s, v) == reference_apply_lift(f, s, v)

    def test_built_tables_need_no_bracket_or_barred_action(self, monkeypatch):
        f = _twisted_gl12(Scalar(3))
        v = ModuleVector({k: Scalar(n + 1) for n, k in enumerate(f.basis_keys(1))})
        units = [SparseVector.unit(i) for i in range(f.base.dim)]
        want = [reference_apply_lift(f, s, v) for s in units]
        assert [f.apply_lift(s, v) for s in units] == want

        def refuse(*args):
            raise AssertionError("a built lift table must not call back")

        monkeypatch.setattr(f, "apply_barred", refuse)
        monkeypatch.setattr(f.base, "bracket", refuse)
        assert [f.apply_lift(s, v) for s in units] == want

    def test_tables_read_the_dual_forms_of_the_build(self, monkeypatch):
        # each lower dual's form is computed once, when the module is built; compiling
        # the tables computes only the brackets' forms
        f = _twisted_gl12(Scalar(3))
        lower = {id(u) for u in f.dual.lower}
        adapted, seen = f._adapted, []
        monkeypatch.setattr(f, "_adapted", lambda x: seen.append(x) or adapted(x))
        for i in range(f.base.dim):
            f._lift_table(i)
        assert seen
        assert [x for x in seen if id(x) in lower] == []


@functools.lru_cache(maxsize=None)
def _borel_extension(m, n, order):
    return build_takiff(*borel_root_datum(m, n, order))[0]


def _quad_count(table):
    return sum(len(outer) for _, outer in table[0])


class TestNormalOrder:
    """The Wick normal-ordered lift tables against the tables as the dual-basis sum writes them."""

    @given(
        st.sampled_from([mn for mn in _GL_UP_TO_4 if sum(mn) > 1]),
        st.sampled_from(sorted(_CHECK_LEVELS)),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_operator_from_half_the_pairs(self, mn, level, twisted, data):
        m, n = mn
        t = _borel_extension(m, n, tuple(data.draw(st.permutations(range(m + n)))))
        odd = [k for k, r in enumerate(t.rd.positive_roots()) if r.parity == ODD]
        eta = {k: data.draw(_small_scalars) for k in odd} if twisted else None
        f = build_fock(t, data.draw(_CHECK_LEVELS[level]), eta)
        keys = f.basis_keys(2)
        for i in range(f.base.dim):
            table, ref = f._lift_table(i), reference_lift_table(f, i)
            assert 2 * _quad_count(table) == _quad_count(ref), i
            for inner, outer in table[0]:
                for t1, _ in outer:
                    # no creating inner slot under a lowering-only outer slot on its letter
                    (_, pos, creates, _), (_, pos1, creates1, _) = f.slots[inner], f.slots[t1]
                    assert not (pos == pos1 and creates and not creates1), (i, inner, t1)
            for key in keys:
                got = f._apply([(ONE, table)], {key: ONE}, {})
                assert got == f._apply([(ONE, ref)], {key: ONE}, {}), (i, key)

    @given(
        st.dictionaries(
            st.integers(0, 8),
            st.dictionaries(st.integers(0, 8), _small_scalars.filter(bool), min_size=1, max_size=3),
            max_size=5,
        ),
        st.sampled_from(sorted(_ENGINE_LEVELS)),
    )
    @example({8: {8: ONE}}, "fraction").via("w w is the constant c/2")
    @example({6: {7: ONE}, 7: {6: ONE}}, "integer").via("a b + b a is the constant 2c")
    @example({3: {6: ONE}}, "gaussian").via("two odd letters swap with a sign")
    @settings(max_examples=60, deadline=None)
    def test_any_ordered_quadratic_form(self, quad, level):
        # gl(2|1) has nine slots: Ebar 0-2, their creating slots 3-5, a_1 6, b_1 7 and w 8
        f = fock(2, 1, _ENGINE_LEVELS[level])
        assert len(f.slots) == 9 and f.slots[8][2] and f.slots[8][3]
        table, const = _normal_order(f.slots, quad)
        ordered = [(inner, sorted(row.items())) for inner, row in quad.items()]
        for key in f.basis_keys(3):
            want = f._apply([(ONE, (ordered, [], ZERO))], {key: ONE}, {})
            assert f._apply([(ONE, (table, [], const))], {key: ONE}, {}) == want, key


class TestReplacedRules:
    """The key walk and the barred commutator constants against the code they replaced."""

    @pytest.mark.parametrize("name", ["gl11", "gl21", "gl22", "gl12.twisted"])
    def test_basis_keys_match_product_enumeration(self, name):
        f = _twisted_gl12(ONE) if name == "gl12.twisted" else fock(int(name[2]), int(name[3]), ONE)
        for d in range(5):
            assert f.basis_keys(d) == reference_basis_keys(f, d)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_extension_z_coefficients_match_hand_constants(self, m, n):
        f = fock(m, n, Scalar(2, 1))
        t = f.takiff
        for x, y, want in reference_barred_commutators(f):
            assert f.c * t.total.bracket(t.embed(x, 1), t.embed(y, 1)).get(t.z_index) == want


class _DoubledLift(FockModule):
    def apply_lift(self, s, v):
        return super().apply_lift(s, v).scale(Scalar(2))


class _CreatingTermLift(FockModule):
    """The first positive root vector's lift gains a linear term on the first creating slot."""

    def _lift_table(self, i):
        quad, linear, const = super()._lift_table(i)
        if i == self.positives[0].space[0]:
            linear = [*linear, (len(self.positives), ONE)]
        return quad, linear, const


class _ConstantDroppedLift(FockModule):
    def _lift_table(self, i):
        quad, linear, _ = super()._lift_table(i)
        return quad, linear, ZERO


class _BarredFault(FockModule):
    """Barred forms with a planted fault. The lift tables are compiled before the fault
    is switched on, so only the barred action carries it."""

    faulty = False

    def __init__(self, *args):
        super().__init__(*args)
        for i in range(self.base.dim):
            self._lift_table(i)
        self.faulty = True

    def _adapted(self, x):
        form = super()._adapted(x)
        return self.fault(*form) if self.faulty else form


class _TwistDroppedBarred(_BarredFault):
    def fault(self, quad, linear, twist):
        return quad, linear, ZERO


class _DoubledBarred(_BarredFault):
    """Unlike the dropped twist, this fault moves the first witness of a check whose own
    coordinate reads miss it: [h, u_k] is a multiple of u_k for a Cartan element h, so a
    dropped twist fails first at the same pair either way."""

    def fault(self, quad, linear, twist):
        return quad, [(t, a + a) for t, a in linear], twist


class _OddNegatedLift(FockModule):
    def apply_lift(self, s, v):
        flipped = SparseVector({i: -x if self.base.parity[i] else x for i, x in s.items()})
        return super().apply_lift(flipped, v)


class TestLiftCheckMemo:
    """verify_lift_identities, which sums every lift from one phi(e_i) action per
    (i, monomial), against the check that called apply_lift on each vector."""

    @given(
        st.sampled_from([("gl11", 3), ("gl21", 1), ("gl12.twisted", 1)]),
        st.sampled_from(sorted(_CHECK_LEVELS)),
        st.data(),
    )
    @settings(max_examples=24, deadline=None)
    def test_report_matches_reference(self, case, level, data):
        name, top = case
        c = data.draw(_CHECK_LEVELS[level])
        deg = data.draw(st.integers(0, top))
        f = _twisted_gl12(c) if name == "gl12.twisted" else fock(int(name[2]), int(name[3]), c)
        want = reference_verify_lift_identities(f, deg)
        assert want.passed
        assert verify_lift_identities(f, deg).to_dict() == want.to_dict()

    @pytest.mark.parametrize(
        "planted",
        [_DoubledLift, _CreatingTermLift, _ConstantDroppedLift, _OddNegatedLift, _TwistDroppedBarred, _DoubledBarred],
    )
    def test_planted_fault_has_the_reference_witness(self, planted):
        g = _twisted_gl21(Scalar(2))
        f = planted(g.takiff, g.c, g.eta)
        want = reference_verify_lift_identities(f, 1)
        assert not want.passed
        assert verify_lift_identities(f, 1).to_dict() == want.to_dict()

    @given(
        st.sampled_from(["gl11", "gl21", "gl12.twisted"]),
        st.sampled_from(sorted(_ENGINE_LEVELS)),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_apply_lift_is_linear(self, name, level, data):
        f, _, keys = _engine_pair(name, level)
        s = SparseVector(
            data.draw(st.dictionaries(st.integers(0, f.base.dim - 1), _small_scalars, max_size=4))
        )
        v = ModuleVector(data.draw(st.dictionaries(st.sampled_from(keys), _small_scalars, max_size=5)))
        want = ModuleVector()
        for i, si in s.items():
            for key, a in v.items():
                want = want + f.apply_lift(SparseVector.unit(i), ModuleVector({key: ONE})).scale(si * a)
        assert f.apply_lift(s, v) == want


class TestLiftWorkloadCalls:
    """The benchmark's traced `lift` run fails when a method it expects a call of records none.
    Each FockModule method named in its expected calls must be called by the lift check on every
    `lift` module, so a refactor that routes around one fails here first."""

    def test_each_expected_method_is_called(self, monkeypatch, tmp_path):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        lift = workloads.LIFT
        prefix = "fockrep.FockModule."
        names = [n[len(prefix) :] for n in lift.expect_calls if n.startswith(prefix)]
        assert {"apply_barred", "apply_lift"} <= set(names)
        calls = Counter()

        def counted(name):
            method = getattr(FockModule, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            return wrapper

        for name in names:
            monkeypatch.setattr(FockModule, name, counted(name))
        inputs = lift.setup(workloads.draw(lift, random.Random(7)), str(tmp_path))
        for job in lift.jobs:
            calls.clear()
            assert job.run(inputs).passed, job.name
            assert [n for n in names if not calls[n]] == [], job.name

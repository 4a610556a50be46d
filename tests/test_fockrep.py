"""Fock modules: generator relations, lifts, highest weight, tensor products."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_engines import ReferenceFock
from whittak.exactlin import I, ONE, ZERO, Scalar, SparseVector
from whittak.fockrep import (
    FockIndex,
    FockModule,
    ModuleVector,
    build_fock,
    clifford_module_dim,
    cyclicity_spot_check,
    natural_module,
    tensor_with_findim,
    verify_highest_weight,
    verify_lift_identities,
    verify_relations,
    verify_whittaker_covariance,
)
from whittak.superalg import ODD, build_gl, weyl_vector
from whittak.takiff import build_takiff

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
            assert 2 ** f.n_cliff == clifford_module_dim(ell, True)


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
        assert idx.poly == (1,) and coeff == ONE
        # odd root: Ebar Fbar |0> = (-1)^p(E) c |0> = -c|0>
        back = f.apply_barred(f.dual.E[0], created)
        assert back == vac.scale(-f.c)

    @pytest.mark.parametrize("m,n,c", [(1, 1, Scalar(1)), (2, 1, Scalar(2)), (1, 2, Scalar(-1, 1))])
    def test_relations_hold(self, m, n, c):
        rep = verify_relations(fock(m, n, c), max_degree=2)
        assert rep.passed, rep.to_json()

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
        assert rep.passed, rep.to_json()

    def test_lift_identities_twisted(self):
        a, rd = build_gl(2, 1)
        t, _ = build_takiff(a, rd)
        odd_slots = [i for i, r in enumerate(rd.positive_roots()) if r.parity == ODD]
        f = build_fock(t, Scalar(2), {odd_slots[0]: ONE, odd_slots[1]: Scalar(-1)})
        rep = verify_lift_identities(f, max_degree=1)
        assert rep.passed, rep.to_json()

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
        for ix in f.basis_keys(2):
            v = ModuleVector({ix: ONE})
            for k in range(t.total.dim):
                out = f.apply_total_index(k, v)
                want = (ix.parity + t.total.parity[k]) % 2
                for jx in out.terms:
                    assert jx.parity == want

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
        assert rep.passed, rep.to_json()

    def test_gl11_value(self):
        f = fock(1, 1, Scalar(2))
        assert f.rho.values[0] == -half and f.rho.values[1] == half

    def test_twisted_rejected(self):
        a, rd = build_gl(1, 1)
        t, _ = build_takiff(a, rd)
        f = build_fock(t, ONE, {0: ONE})
        with pytest.raises(ValueError):
            verify_highest_weight(f)


class TestWhittakerCovariance:
    def test_gl11_vacuous(self):
        a, rd = build_gl(1, 1)
        t, _ = build_takiff(a, rd)
        f = build_fock(t, ONE, {0: ONE})
        rep = verify_whittaker_covariance(f, {}, max_degree=1)
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
        rep = verify_whittaker_covariance(f, chi_hat, max_degree=1)
        assert rep.passed, rep.to_json()

    def test_zero_twist_reduces_to_highest_weight(self):
        a, rd = build_gl(2, 1)
        t, _ = build_takiff(a, rd)
        f = build_fock(t, ONE)
        rep = verify_whittaker_covariance(f, {}, max_degree=1)
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
        with pytest.raises(ValueError):
            verify_whittaker_covariance(f, {}, max_degree=0)


class TestTensor:
    def test_trivial_module_reproduces_fock(self):
        from whittak.exactlin import SparseMatrix

        f = fock(1, 1, ONE)
        L = natural_module(f.base, 1, 1)
        trivial = type(L)(
            f.base, 1, (0,), [SparseMatrix(1, 1) for _ in range(f.base.dim)]
        )
        tm = tensor_with_findim(trivial, f)
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
            tensor_with_findim(L, f)

    def test_natural_module_highest_weight_shift(self):
        f = fock(1, 1, Scalar(3))
        L = natural_module(f.base, 1, 1)
        tm = tensor_with_findim(L, f)
        v = tm.vacuum_line()[0]  # highest L-vector tensor vacuum
        rho = weyl_vector(f.rd, f.c)
        for pos, h in enumerate(f.rd.cartan):
            got = tm.apply_total_index(h, v)
            lam = (ONE if pos == 0 else ZERO) + rho.values[pos]
            assert got == v.scale(lam)

    def test_cyclicity_spot_check(self):
        f = fock(1, 1, ONE)
        L = natural_module(f.base, 1, 1)
        tm = tensor_with_findim(L, f)
        rep = cyclicity_spot_check(tm, seed=0, samples=20)
        assert rep.passed, rep.to_json()
        assert rep.seed == 0


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


_ENGINE_LEVELS = {"integer": Scalar(3), "fraction": Scalar(Fraction(-1, 2)), "gaussian": Scalar(2, 1)}
_small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_small_scalars = st.builds(Scalar, _small, _small)


@functools.lru_cache(maxsize=None)
def _engine_pair(name, level):
    """The module under test, the five-branch reference engine over it, and its keys."""
    c = _ENGINE_LEVELS[level]
    f = _twisted_gl12(c) if name == "gl12.twisted" else fock(int(name[2]), int(name[3]), c)
    return f, ReferenceFock(f), f.basis_keys(2)


class TestOneLetterRule:
    """apply_barred against the five-branch engine it replaced."""

    @given(
        st.sampled_from(["gl11", "gl21", "gl12.twisted"]),
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

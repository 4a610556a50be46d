"""Central extensions: bracket rules, odd form, cocycle, dual bases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_engines import reference_odd_form_prime, reference_verify_takiff
from test_superalg import EDIT_SCALARS, edit_table, edited_form, rescale_basis
from whittak.exactlin import ONE, ZERO, SparseMatrix, SparseVector
from whittak.superalg import SuperAlgebra, build_gl, verify_algebra
from whittak.takiff import (
    build_takiff,
    cocycle_alpha_d,
    dual_bases,
    odd_form_prime,
    verify_hat_closure,
    verify_takiff,
)


def unit(alg, label):
    return SparseVector.unit(alg.labels.index(label))


def tak(m, n):
    a, rd = build_gl(m, n)
    return build_takiff(a, rd)


class TestBuild:
    def test_gl11_dimension_and_checks(self):
        t, hat = tak(1, 1)
        assert t.total.dim == 9
        rep = verify_takiff(t)
        assert rep.passed, rep.to_dict()
        assert verify_hat_closure(t, hat).passed

    def test_gl10_heisenberg_like(self):
        # one even generator x with (x|x) = 1: [x.th, x.th] = z
        t, _ = tak(1, 0)
        assert t.total.dim == 3
        xbar = SparseVector.unit(t.theta(0))
        got = t.total.bracket(xbar, xbar)
        assert got == SparseVector.unit(t.z_index)
        assert verify_takiff(t).passed

    def test_z_central_everywhere(self):
        t, _ = tak(2, 1)
        z = SparseVector.unit(t.z_index)
        for b in range(t.total.dim):
            assert not t.total.bracket(z, SparseVector.unit(b))

    def test_form_required(self):
        a, rd = build_gl(1, 1)
        a.form = None
        with pytest.raises(ValueError):
            build_takiff(a, rd)

    def test_total_passes_verify_algebra_gl21(self):
        t, _ = tak(2, 1)
        assert t.total.dim == 19
        assert verify_algebra(t.total).passed


class TestStructureJoins:
    """verify_takiff against the basis-triple scans it replaced."""

    @given(st.sampled_from([(1, 1), (2, 1), (1, 2)]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_triple_scan(self, mn, data):
        a, rd = build_gl(*mn)
        rescale_basis(a, data)
        t, _ = build_takiff(a, rd)
        # z is drawn about half the time: terms on z and brackets with z
        index = st.one_of(st.just(t.z_index), st.integers(0, t.total.dim - 1))
        edit_table(t.total.table, index, data)
        t.base.form = edited_form(t.base.form, data)
        assert verify_takiff(t).to_dict() == reference_verify_takiff(t).to_dict()


class TestOddForm:
    def test_one_vs_theta(self):
        t, _ = tak(1, 1)
        x = SparseVector.unit(t.base.labels.index("E_12"))
        y = SparseVector.unit(t.theta(t.base.labels.index("E_21")))
        assert odd_form_prime(t, x, y) == ONE

    def test_one_vs_one_vanishes(self):
        t, _ = tak(1, 1)
        for i in range(t.n1):
            for j in range(t.n1):
                assert odd_form_prime(t, SparseVector.unit(i), SparseVector.unit(j)) == ZERO

    def test_theta_vs_one_sign(self):
        # (E_21.th | E_12)' = (-1)^p(E_12) (E_21|E_12) = (-1)(-1) = 1
        t, _ = tak(1, 1)
        x = SparseVector.unit(t.theta(t.base.labels.index("E_21")))
        y = SparseVector.unit(t.base.labels.index("E_12"))
        assert odd_form_prime(t, x, y) == ONE

    def test_z_rejected(self):
        t, _ = tak(1, 1)
        with pytest.raises(ValueError):
            odd_form_prime(t, SparseVector.unit(t.z_index), SparseVector.unit(0))

    @given(st.sampled_from([(1, 1), (2, 1), (1, 2)]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pair_reference(self, mn, data):
        a, rd = build_gl(*mn)
        rescale_basis(a, data)
        t, _ = build_takiff(a, rd)
        t.base.form = edited_form(t.base.form, data)
        keys = st.integers(0, t.total.dim - 1)  # z is the last index
        vectors = st.dictionaries(keys, EDIT_SCALARS.filter(bool), min_size=1, max_size=4).map(SparseVector)
        x, y = data.draw(vectors, label="x"), data.draw(vectors, label="y")
        if t.z_index in x.entries or t.z_index in y.entries:
            for pairing in (odd_form_prime, reference_odd_form_prime):
                with pytest.raises(ValueError):
                    pairing(t, x, y)
        else:
            assert odd_form_prime(t, x, y) == reference_odd_form_prime(t, x, y)


class TestCocycle:
    def test_theta_theta(self):
        t, _ = tak(1, 1)
        x = SparseVector.unit(t.theta(t.base.labels.index("E_12")))
        y = SparseVector.unit(t.theta(t.base.labels.index("E_21")))
        assert cocycle_alpha_d(t, x, y) == ONE

    def test_one_side_vanishes(self):
        t, _ = tak(1, 1)
        for i in range(t.n1):
            for j in range(2 * t.n1):
                assert cocycle_alpha_d(t, SparseVector.unit(i), SparseVector.unit(j)) == ZERO

    def test_orthonormal_cartan_delta(self):
        t, _ = tak(1, 1)
        db = dual_bases(t.base, t.rd)
        for i, hi in enumerate(db.H):
            for j, hj in enumerate(db.H):
                want = ONE if i == j else ZERO
                assert cocycle_alpha_d(t, t.embed(hi, 1), t.embed(hj, 1)) == want


class TestDualBases:
    def test_gl11(self):
        a, rd = build_gl(1, 1)
        db = dual_bases(a, rd)
        e12 = SparseVector.unit(a.labels.index("E_12"))
        e21 = SparseVector.unit(a.labels.index("E_21"))
        assert db.E == [e12]
        assert db.F == [e21]
        assert a.form_pair(db.E[0], db.F[0]) == ONE
        # orthonormal Cartan needs an i on the odd-signature unit
        assert a.form_pair(db.H[0], db.H[0]) == ONE
        assert a.form_pair(db.H[1], db.H[1]) == ONE
        assert a.form_pair(db.H[0], db.H[1]) == ZERO

    def test_errors_name_the_root_in_the_file_grammar(self):
        a, rd = build_gl(2, 1)
        no_e31 = rd._replace(roots=tuple(r for r in rd.roots if r.space != (a.labels.index("E_31"),)))
        with pytest.raises(ValueError, match=r"^missing opposite root for \(1, 0, -1\)$"):
            dual_bases(a, no_e31)
        a, rd = build_gl(1, 1)
        form = SparseMatrix(a.dim, a.dim, {k: s for k, s in a.form.entries.items() if k not in ((1, 2), (2, 1))})
        with pytest.raises(ValueError, match=r"^root vectors pair to zero for root \(1, -1\)$"):
            dual_bases(SuperAlgebra(a.name, a.labels, a.parity, a.table, form), rd)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_pairing_is_identity(self, m, n):
        a, rd = build_gl(m, n)
        db = dual_bases(a, rd)
        assert len(db.upper) == a.dim
        for i in range(len(db.upper)):
            for j in range(len(db.upper)):
                want = ONE if i == j else ZERO
                assert a.form_pair(db.upper[i], db.lower[j]) == want

    def test_completeness_identity(self):
        # [s, u_i] = sum_j (u^j | [s, u_i]) u_j for a sample of s
        a, rd = build_gl(2, 1)
        db = dual_bases(a, rd)
        for s_idx in range(a.dim):
            s = SparseVector.unit(s_idx)
            for u in db.lower:
                br = a.bracket(s, u)
                recon = SparseVector()
                for j in range(len(db.upper)):
                    coeff = a.form_pair(db.upper[j], br)
                    if coeff:
                        recon = recon + db.lower[j].scale(coeff)
                assert recon == br

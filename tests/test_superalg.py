"""gl(m|n) builders, structural verification, spans, gradings, centralizers."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gl_supercommutator_table, supertrace, unit_matrix, mat_mul
from reference_engines import reference_eigen_failures, reference_gl_parity_sequence, reference_verify_algebra
from whittak.exactlin import ONE, ZERO, I, Scalar, SparseMatrix, SparseVector
from whittak.superalg import (
    EVEN,
    ODD,
    Root,
    SuperAlgebra,
    Weight,
    build_gl,
    centralizer_dim,
    eigen_failures,
    gl_parity_sequence,
    grading_by_adh,
    subalgebra_from_span,
    verify_algebra,
    verify_root_datum,
    weyl_vector,
)

half = Scalar(Fraction(1, 2))


def unit(alg, label):
    return SparseVector.unit(alg.labels.index(label))


def test_parity_sequences():
    assert gl_parity_sequence(1, 1) == [0, 1]
    assert gl_parity_sequence(2, 1) == [0, 1, 0]
    assert gl_parity_sequence(1, 2) == [1, 0, 1]
    assert gl_parity_sequence(2, 2) == [0, 1, 0, 1]
    assert gl_parity_sequence(2, 3) == [1, 0, 1, 0, 1]
    assert gl_parity_sequence(2, 0) == [0, 0]
    assert gl_parity_sequence(4, 1) == [0, 0, 0, 1, 0]


def test_parity_sequence_matches_the_greedy_loop():
    shapes = [(m, n) for m in range(13) for n in range(13 - m)]
    assert [gl_parity_sequence(m, n) for m, n in shapes] == [reference_gl_parity_sequence(m, n) for m, n in shapes]


@given(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]), st.data())
@settings(max_examples=60, deadline=None)
def test_eigen_failures_match_the_bracket_check(mn, data):
    """The table-read eigen check yields the witnesses, in order, of one bracket per Cartan
    element and root vector, on root data with corrupted covectors and tables with corrupted
    entries."""
    a, rd = build_gl(*mn)
    roots, table = list(rd.roots), dict(a.table)
    for _ in range(data.draw(st.integers(0, 3))):
        k, pos = data.draw(st.integers(0, len(roots) - 1)), data.draw(st.integers(0, len(rd.cartan) - 1))
        if data.draw(st.booleans()):
            value = data.draw(st.sampled_from([ZERO, ONE, -ONE, Scalar(2), I]))
            cov = roots[k].covector
            roots[k] = roots[k]._replace(covector=cov[:pos] + (value,) + cov[pos + 1:])
        else:
            key = (rd.cartan[pos], roots[k].space[0])
            table[key] = data.draw(st.sampled_from([SparseVector(), SparseVector.unit(0), SparseVector.unit(key[1])]))
    a = SuperAlgebra(a.name, a.labels, a.parity, table, a.form)
    rd = rd._replace(roots=tuple(roots))
    assert list(eigen_failures(a, rd)) == list(reference_eigen_failures(a, rd))


class TestBuildGl:
    def test_gl11_bracket_and_form(self):
        a, _ = build_gl(1, 1)
        e12, e21 = unit(a, "E_12"), unit(a, "E_21")
        assert a.bracket(e12, e21) == unit(a, "E_11") + unit(a, "E_22")
        assert a.form_pair(e12, e21) == ONE
        assert a.form_pair(e21, e12) == -ONE

    def test_gl20_classical(self):
        a, rd = build_gl(2, 0)
        assert all(p == EVEN for p in a.parity)
        assert verify_algebra(a).passed
        assert verify_root_datum(a, rd).passed

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            build_gl(0, 0)

    @pytest.mark.parametrize(
        "m,n",
        [(m, n) for m in range(4) for n in range(4) if 1 <= m + n] + [(2, 3)],
    )
    def test_verify_passes(self, m, n):
        a, rd = build_gl(m, n)
        assert a.dim == (m + n) ** 2
        rep = verify_algebra(a)
        assert rep.passed, rep.to_dict()
        assert verify_root_datum(a, rd).passed

    def test_gl21_against_matrix_oracle(self):
        """Each structure constant re-derived from dense matrix products."""
        a, _ = build_gl(2, 1)
        d = 3
        rowp = gl_parity_sequence(2, 1)
        table = gl_supercommutator_table(d, rowp)
        for p in range(d):
            for q in range(d):
                for r in range(d):
                    for s in range(d):
                        got = a.bracket_basis(p * d + q, r * d + s)
                        want = table[((p, q), (r, s))]
                        dense = {}
                        for i in range(d):
                            for j in range(d):
                                re, im = want[i][j]
                                if re or im:
                                    dense[i * d + j] = Scalar(re, im)
                        assert got == SparseVector(dense)

    def test_gl21_form_against_supertrace_oracle(self):
        a, _ = build_gl(2, 1)
        d = 3
        rowp = gl_parity_sequence(2, 1)
        for p in range(d):
            for q in range(d):
                for r in range(d):
                    for s in range(d):
                        prod = mat_mul(unit_matrix(d, p, q), unit_matrix(d, r, s))
                        re, im = supertrace(prod, rowp)
                        assert a.form.get(p * d + q, r * d + s) == Scalar(re, im)

    def test_tampered_table_caught(self):
        a, _ = build_gl(1, 1)
        i, j = a.labels.index("E_12"), a.labels.index("E_21")
        a.table.pop((i, j))
        rep = verify_algebra(a)
        assert not rep.passed
        names = {c.name for c in rep.failures()}
        assert names & {"super Jacobi identity", "form is invariant", "super-anticommutativity"}

    @pytest.mark.parametrize("upper", [True, False], ids=["upper-entry-dropped", "lower-entry-dropped"])
    def test_form_entry_without_its_partner(self, upper):
        # one orientation of a pair holds an entry and the other none: supersymmetry fails
        # whichever orientation is left
        a, _ = build_gl(1, 1)
        entries = dict(a.form.entries)
        del entries[next(k for k in sorted(entries) if k[0] != k[1] and (k[0] < k[1]) == upper)]
        a.form = SparseMatrix(a.dim, a.dim, entries)
        rep = verify_algebra(a)
        assert "form is supersymmetric" in {c.name for c in rep.failures()}
        assert rep.to_dict() == reference_verify_algebra(a).to_dict()


# denominators 1, 2, 3 and 11, non-real values and one large numerator, so the joins' common
# denominators exceed 2 and their packing base B is large
EDIT_SCALARS = st.sampled_from(
    [ONE, -ONE, Scalar(2), I, half, Scalar(1, 1) / Scalar(3), Scalar(10**12 + 7, 3) / Scalar(11), ZERO]
)


def edit_table(table, index, data):
    """Bump, add or remove a few random bracket coefficients of `table` in place.

    `index` draws the basis indices of an added entry. A zero scalar drops an
    added term; the table may keep an empty bracket, which reads as zero.
    """
    for _ in range(data.draw(st.integers(0, 3), label="table edits")):
        kind = data.draw(st.sampled_from(["bump", "add", "remove"]))
        keys = sorted(table)
        if kind == "remove" and keys:
            del table[data.draw(st.sampled_from(keys))]
            continue
        if kind == "bump" and keys:
            key = data.draw(st.sampled_from(keys))
            entries = dict(table[key].entries)
            k = data.draw(st.sampled_from(sorted(entries) or [0]))
            entries[k] = entries.get(k, ZERO) + data.draw(EDIT_SCALARS)
        else:
            key = (data.draw(index), data.draw(index))
            entries = dict(table.get(key, SparseVector()).entries)
            entries[data.draw(index)] = data.draw(EDIT_SCALARS)
        table[key] = SparseVector(entries)


def rescale_basis(a, data):
    """Move `a` in place to the basis c_k e_k, each c_k drawn from the nonzero EDIT_SCALARS.

    The algebra is the same up to isomorphism, so every check passes or fails
    as before, but Jacobi and invariance terms become products of non-real
    scalars whose real and imaginary parts differ from term to term.
    """
    c = [data.draw(EDIT_SCALARS.filter(bool), label="basis scale") for _ in range(a.dim)]
    a.table = {
        (i, j): SparseVector({k: s * c[i] * c[j] / c[k] for k, s in v.items()})
        for (i, j), v in a.table.items()
    }
    a.form = SparseMatrix(
        a.dim, a.dim, {(i, j): f * c[i] * c[j] for (i, j), f in a.form.entries.items()}
    )


def edited_form(form, data):
    """`form` with up to two random entries set (a zero scalar removes one)."""
    entries = dict(form.entries)
    for _ in range(data.draw(st.integers(0, 2), label="form edits")):
        key = (data.draw(st.integers(0, form.rows - 1)), data.draw(st.integers(0, form.cols - 1)))
        entries[key] = data.draw(EDIT_SCALARS)
    return SparseMatrix(form.rows, form.cols, entries)


class TestStructureJoins:
    """verify_algebra against the basis-triple scans it replaced."""

    @given(st.sampled_from([(1, 1), (2, 1), (1, 2)]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_triple_scan(self, mn, data):
        a, _ = build_gl(*mn)
        rescale_basis(a, data)
        edit_table(a.table, st.integers(0, a.dim - 1), data)
        a.form = edited_form(a.form, data)
        assert verify_algebra(a).to_dict() == reference_verify_algebra(a).to_dict()


class TestSubalgebra:
    def test_central_span(self):
        a, _ = build_gl(1, 1)
        center = unit(a, "E_11") + unit(a, "E_22")
        sub, _ = subalgebra_from_span(a, [center])
        assert sub.dim == 1
        assert not sub.table

    def test_full_span_identity_embedding(self):
        a, _ = build_gl(1, 1)
        gens = [SparseVector.unit(i) for i in range(4)]
        sub, emb = subalgebra_from_span(a, gens)
        assert sub.dim == 4
        for j in range(4):
            assert emb.column(j) == SparseVector.unit(j)
        assert verify_algebra(sub).passed

    def test_principal_osp12_in_gl12(self):
        a, _ = build_gl(1, 2)
        e = unit(a, "E_21") + unit(a, "E_32")
        f = unit(a, "E_23") - unit(a, "E_12")
        assert a.parity_of(e) == ODD and a.parity_of(f) == ODD
        sub, _ = subalgebra_from_span(a, [e, f], name="osp(1|2)")
        assert sub.dim == 5
        assert verify_algebra(sub).passed

    def test_closure_brackets_each_pair_once(self, monkeypatch):
        # the closure loop brackets each unordered pair of members once and the
        # table each ordered pair: k(k+1)/2 + k^2 calls in all
        a, rd = build_gl(2, 3)
        gens = []
        for r in rd.simple_roots():
            neg = rd.roots[rd.root_index(tuple(-c for c in r.covector))]
            gens += [SparseVector.unit(r.space[0]), SparseVector.unit(neg.space[0])]
        calls = []
        bracket = a.bracket
        monkeypatch.setattr(a, "bracket", lambda x, y: calls.append(1) or bracket(x, y))
        sub, _ = subalgebra_from_span(a, gens)
        k = sub.dim
        assert k == 24 and len(calls) == k * (k + 1) // 2 + k * k

    def test_non_homogeneous_generator_rejected(self):
        a, _ = build_gl(1, 1)
        with pytest.raises(ValueError):
            subalgebra_from_span(a, [unit(a, "E_11") + unit(a, "E_12")])

    @given(st.sampled_from([(1, 1), (2, 1), (1, 2)]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_rebuilds_brackets_over_members(self, mn, data):
        a, _ = build_gl(*mn)
        gens = []
        for _ in range(data.draw(st.integers(1, 3))):
            parity = data.draw(st.sampled_from([EVEN, ODD]))
            index = st.sampled_from([i for i in range(a.dim) if a.parity[i] == parity])
            gens.append(SparseVector(data.draw(st.dictionaries(index, EDIT_SCALARS, max_size=3))))
        sub, emb = subalgebra_from_span(a, gens)
        members = [emb.column(i) for i in range(sub.dim)]
        for i in range(sub.dim):
            for j in range(sub.dim):
                rebuilt = SparseVector()
                for k, s in sub.bracket_basis(i, j).items():
                    rebuilt = rebuilt + members[k].scale(s)
                assert rebuilt == a.bracket(members[i], members[j])


class TestWeylVector:
    def test_gl11(self):
        _, rd = build_gl(1, 1)
        rho = weyl_vector(rd)
        assert rho.values == (-half, half)

    def test_gl20(self):
        _, rd = build_gl(2, 0)
        rho = weyl_vector(rd)
        assert rho.values == (half, -half)

    def test_gl21_vanishes(self):
        # one even positive root equal to the sum of the two odd simples
        _, rd = build_gl(2, 1)
        pos = rd.positive_roots()
        assert sum(1 for r in pos if r.parity == EVEN) == 1
        assert sum(1 for r in pos if r.parity == ODD) == 2
        rho = weyl_vector(rd)
        assert all(v == ZERO for v in rho.values)

    def test_gl22(self):
        _, rd = build_gl(2, 2)
        rho = weyl_vector(rd)
        assert rho.values == (-half, half, -half, half)


def osp12_quintuple(a):
    """F, f, h, e, E for the principal embedding in gl(1|2)."""
    e = unit(a, "E_21") + unit(a, "E_32")
    f = unit(a, "E_23") - unit(a, "E_12")
    h = unit(a, "E_33") - unit(a, "E_11")
    E = unit(a, "E_31")
    F = unit(a, "E_13")
    return F, f, h, e, E


class TestGrading:
    def test_zero_h(self):
        a, _ = build_gl(1, 1)
        assert set(grading_by_adh(a, SparseVector())) == {0}

    def test_osp12_degrees(self):
        a, _ = build_gl(1, 2)
        F, f, h, e, E = osp12_quintuple(a)
        # sl(2)-triple bracket sanity in the ambient algebra
        assert a.bracket(e, e) == E.scale(Scalar(2))
        assert a.bracket(f, f) == F.scale(Scalar(-2))
        assert a.bracket(E, F) == h
        assert a.bracket(h, e) == e
        assert a.bracket(h, f) == -f
        # the quintuple realizes the degrees (-2, -1, 0, 1, 2) under ad h
        for vec, deg in ((F, -2), (f, -1), (h, 0), (e, 1), (E, 2)):
            assert a.bracket(h, vec) == vec.scale(Scalar(deg))

    def test_gl12_principal_degrees_bounded(self):
        a, _ = build_gl(1, 2)
        _, _, h, _, _ = osp12_quintuple(a)
        assert set(grading_by_adh(a, h)) <= {-2, -1, 0, 1, 2}

    def test_bracket_additive_on_degrees(self):
        a, _ = build_gl(1, 2)
        _, _, h, _, _ = osp12_quintuple(a)
        by = grading_by_adh(a, h)
        for i in range(a.dim):
            for j in range(a.dim):
                br = a.bracket_basis(i, j)
                for k in br.entries:
                    assert by[k] == by[i] + by[j]

    def test_non_integer_spectrum_rejected(self):
        a, _ = build_gl(1, 1)
        h = unit(a, "E_11").scale(half)
        with pytest.raises(ValueError):
            grading_by_adh(a, h)

    def test_non_eigenbasis_rejected(self):
        # h = E_12 + E_21 is semisimple, but the matrix units are not its eigenvectors
        a, _ = build_gl(2, 0)
        h = unit(a, "E_12") + unit(a, "E_21")
        with pytest.raises(ValueError, match="not an eigenbasis for ad h: E_11"):
            grading_by_adh(a, h)


class TestCentralizer:
    def test_zero_element(self):
        a, _ = build_gl(1, 1)
        assert centralizer_dim(a, SparseVector()) == 4

    def test_principal_gl12(self):
        a, _ = build_gl(1, 2)
        e = unit(a, "E_21") + unit(a, "E_32")
        assert centralizer_dim(a, e) == 3

    def test_principal_gl23(self):
        a, _ = build_gl(2, 3)
        e = sum(
            (unit(a, f"E_{k + 2}{k + 1}") for k in range(1, 4)),
            unit(a, "E_21"),
        )
        assert centralizer_dim(a, e) == 5


class TestRecords:
    """Roots and weights are immutable hashable values; weights add and subtract componentwise."""

    def test_root_and_weight_are_hashable_and_frozen(self):
        _, rd = build_gl(2, 1)
        r = rd.roots[0]
        assert len({r, Root(r.covector, r.space, r.parity), rd.roots[1]}) == 2
        w = Weight((ONE, half, I), ONE)
        assert {w: 1}[Weight((ONE, half, I), ONE)] == 1
        for record, name in ((r, "parity"), (w, "level"), (w, "values")):
            with pytest.raises(AttributeError):
                setattr(record, name, ZERO)

    def test_weight_arithmetic(self):
        a, b = Weight((ONE, half), ONE), Weight((half, I), half)
        assert a + b == Weight((ONE + half, half + I), ONE + half)
        assert a - b == Weight((half, half - I), half)
        assert Weight((ONE,)).level == ZERO and a.restrict() == Weight((ONE, half))
        for op in (operator.add, operator.sub):
            with pytest.raises(ValueError, match="different Cartans"):
                op(a, Weight((ONE,)))

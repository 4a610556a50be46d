"""Report.first_failure, and the exact failing reports of the structural verifiers.

`pinned_reports.json` holds each case's `to_dict()` as produced by the
verifiers before they reported through `first_failure`; every report must
still serialize to the same bytes. The root-datum and hat-decomposition cases
were pinned when every check came to carry a witness: before that, their
failing checks had none.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_engines import reference_dumps, reference_partition_verdict, reference_root_datum_verdicts

from whittak import serialize
from whittak.exactlin import ONE, Scalar, SparseVector
from whittak.fockrep import FockModule, verify_lift_identities
from whittak.reports import Report
from whittak.superalg import SuperAlgebra, build_gl, verify_algebra, verify_root_datum
from whittak.takiff import TakiffAlgebra, build_takiff, verify_hat_closure, verify_takiff
from whittak.wfinite import (
    graded_nilradical,
    nilchar_from_e,
    solve_dual_elements,
    verify_skryabin_conditions,
)

PINNED = Path(__file__).with_name("pinned_reports.json")
SMALL = [(1, 1), (2, 1), (1, 2), (2, 2)]


class TestFirstFailure:
    def test_empty_iterable_passes_without_witness(self):
        rep = Report("t")
        rep.first_failure("nothing fails", [])
        assert rep.passed
        assert rep.checks[0].witness is None

    def test_generator_is_not_advanced_past_its_first_witness(self):
        def witnesses():
            yield "first"
            raise AssertionError("advanced past the first witness")

        rep = Report("t")
        rep.first_failure("lazy", witnesses())
        assert not rep.passed
        assert rep.checks[0].witness == "first"


class TestReportState:
    def test_reports_do_not_share_checks_or_data(self):
        a, b = Report("x"), Report("x")
        a.add("holds", None)
        a.data["k"] = 1
        assert (b.checks, b.data, b.seed) == ([], {}, None)

    def test_seed_is_assignable_and_serialized(self):
        rep = Report("x")
        rep.seed = 3
        assert rep.to_dict() == {"title": "x", "pass": True, "checks": [], "seed": 3}


class TestWitnessRule:
    def test_a_check_passes_exactly_when_it_has_no_witness(self):
        rep = Report("t")
        rep.add("holds", None)
        rep.add("fails", "w")
        assert [c.passed for c in rep.checks] == [True, False]
        assert not rep.passed and rep.failures() == [rep.checks[1]]
        assert [c.get("witness") for c in rep.to_dict()["checks"]] == [None, "w"]


def _drop_root(rd, i):
    """rd without root i, its positive and simple indices renumbered."""

    def renumber(idx):
        return tuple(k - (k > i) for k in idx if k != i)

    return rd._replace(
        roots=rd.roots[:i] + rd.roots[i + 1 :], positive=renumber(rd.positive), simple=renumber(rd.simple)
    )


def _corrupt_root_datum(rd, kind, draw):
    """rd with one corruption of the kind; unchanged when there is nothing left to corrupt."""
    if kind == "dropped cartan index":
        pool = list(rd.cartan)
    elif kind == "duplicated positive":
        pool = list(rd.positive)
    else:
        pool = [i for i in range(len(rd.roots)) if kind == "dropped root" or i not in rd.positive]
    if not pool:
        return rd
    k = draw(st.sampled_from(pool))
    if kind == "dropped cartan index":
        return rd._replace(cartan=tuple(h for h in rd.cartan if h != k))
    if kind == "duplicated positive":
        return rd._replace(positive=rd.positive + (k,))
    return _drop_root(rd, k)


def _corrupt_hat(t, hat, kind, draw):
    """hat with one corruption of the kind; unchanged when there is nothing left to corrupt."""
    if kind == "duplicated positive":
        part, pool = "n_hat", list(hat.n_hat)
    elif kind == "dropped root":
        part = draw(st.sampled_from(["n_hat", "n_minus_hat"]))
        pool = list(getattr(hat, part))
    else:  # dropped z, or a dropped Cartan index other than z
        part, pool = "h_hat", [k for k in hat.h_hat if (k == t.z_index) == (kind == "dropped z")]
    if not pool:
        return hat
    k = draw(st.sampled_from(pool))
    old = getattr(hat, part)
    return hat._replace(**{part: old + (k,) if kind == "duplicated positive" else tuple(x for x in old if x != k)})


class TestWitnessedVerdicts:
    """The witnessed span, negatives and partition checks fail exactly when the set comparisons
    they replaced did, on root data and hat decompositions with corruptions stacked."""

    ROOT_KINDS = ["dropped root", "dropped negative", "dropped cartan index", "duplicated positive"]
    HAT_KINDS = ["dropped z", "dropped cartan index", "dropped root", "duplicated positive"]

    @given(st.sampled_from(SMALL), st.data())
    @settings(max_examples=80, deadline=None)
    def test_root_datum_verdicts(self, mn, data):
        a, rd = build_gl(*mn)
        for kind in data.draw(st.lists(st.sampled_from(self.ROOT_KINDS), max_size=3)):
            rd = _corrupt_root_datum(rd, kind, data.draw)
        checks = {c.name: c for c in verify_root_datum(a, rd).checks}
        span, negatives = checks["cartan and root spaces span"], checks["negatives are minus positives"]
        assert (span.passed, negatives.passed) == reference_root_datum_verdicts(a, rd)

    @given(st.sampled_from(SMALL), st.data())
    @settings(max_examples=80, deadline=None)
    def test_partition_verdicts(self, mn, data):
        a, rd = build_gl(*mn)
        t, hat = build_takiff(a, rd)
        for kind in data.draw(st.lists(st.sampled_from(self.HAT_KINDS), max_size=3)):
            hat = _corrupt_hat(t, hat, kind, data.draw)
        checks = {c.name: c for c in verify_hat_closure(t, hat).checks}
        assert checks["partition covers the basis"].passed == reference_partition_verdict(t, hat)
        assert checks["z sits in the Cartan part"].passed == (t.z_index in hat.h_hat)


def _gl21_with_table(edit):
    a, _ = build_gl(2, 1)
    table = dict(a.table)
    edit(table)
    return SuperAlgebra(a.name, a.labels, a.parity, table, a.form)


def algebra_entry_removed():
    return verify_algebra(_gl21_with_table(lambda table: table.pop((1, 3))))


def algebra_entry_bumped():
    def bump(table):
        v = table[(1, 3)]
        k = min(v.entries)
        table[(1, 3)] = v + SparseVector.unit(k)

    return verify_algebra(_gl21_with_table(bump))


def _edited_extension():
    # [E_12, E_23.th] gains an E_11 term: it leaves the radical and breaks
    # anticommutativity and the generator rule for that pair
    a, rd = build_gl(2, 1)
    t, hat = build_takiff(a, rd)
    i, j = a.labels.index("E_12"), t.theta(a.labels.index("E_23"))
    table = dict(t.total.table)
    table[(i, j)] = table[(i, j)] + SparseVector.unit(a.labels.index("E_11"))
    total = SuperAlgebra(t.total.name, t.total.labels, t.total.parity, table)
    return TakiffAlgebra(a, rd, total, t.z_index), hat


def takiff_total_edited():
    return verify_takiff(_edited_extension()[0])


def hat_closure_total_edited():
    return verify_hat_closure(*_edited_extension())


class _DoubledLift(FockModule):
    def apply_lift(self, s, v):
        return super().apply_lift(s, v).scale(Scalar(2))


def lift_corrupted_prefactor():
    a, rd = build_gl(1, 1)
    t, _ = build_takiff(a, rd)
    return verify_lift_identities(_DoubledLift(t, ONE), max_degree=1)


def _gl12_skryabin(edit):
    a, rd = build_gl(1, 2)
    t, _ = build_takiff(a, rd)
    e = SparseVector.unit(a.labels.index("E_21")) + SparseVector.unit(a.labels.index("E_32"))
    h = SparseVector({a.labels.index(f"E_{k}{k}"): Scalar(k - 2) for k in (1, 2, 3)})
    g = graded_nilradical(t, h)
    chi = nilchar_from_e(t, g, e)
    duals = solve_dual_elements(t, g, e)
    edit(duals)
    return verify_skryabin_conditions(g, chi, duals)


def skryabin_scaled_dual():
    def edit(duals):
        duals[0] = duals[0].scale(Scalar(2))

    return _gl12_skryabin(edit)


def skryabin_mixed_dual():
    def edit(duals):
        duals[1] = duals[1] + duals[2]

    return _gl12_skryabin(edit)


def root_datum_negative_dropped():
    # the last root of gl(2|1) is the negative root of E_32; dropping it shifts no index
    a, rd = build_gl(2, 1)
    assert a.labels[rd.roots[-1].space[0]] == "E_32" and len(rd.roots) - 1 not in rd.positive
    return verify_root_datum(a, rd._replace(roots=rd.roots[:-1]))


def hat_z_dropped():
    a, rd = build_gl(2, 1)
    t, hat = build_takiff(a, rd)
    return verify_hat_closure(t, hat._replace(h_hat=tuple(k for k in hat.h_hat if k != t.z_index)))


CASES = {
    f.__name__: f
    for f in (
        algebra_entry_removed,
        algebra_entry_bumped,
        takiff_total_edited,
        hat_closure_total_edited,
        lift_corrupted_prefactor,
        skryabin_scaled_dual,
        skryabin_mixed_dual,
        root_datum_negative_dropped,
        hat_z_dropped,
    )
}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_every_case_is_pinned(pinned):
    assert set(pinned) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_failing_report_bytes(name, pinned):
    rep = CASES[name]()
    assert not rep.passed
    assert serialize.dumps(rep.to_dict()) == reference_dumps(pinned[name])


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_failing_pinned_check_has_a_witness(name, pinned):
    failing = [c for c in pinned[name]["checks"] if not c["pass"]]
    assert failing and all(c.get("witness") for c in failing)

"""Report.first_failure, and the exact failing reports of the structural verifiers.

`pinned_reports.json` holds each case's `to_dict()` as produced by the
verifiers before they reported through `first_failure`; every report must
still serialize to the same bytes.
"""

import json
from pathlib import Path

import pytest

from whittak.exactlin import ONE, Scalar, SparseVector
from whittak.fockrep import FockModule, verify_lift_identities
from whittak.reports import Report
from whittak.superalg import SuperAlgebra, build_gl, verify_algebra
from whittak.takiff import TakiffAlgebra, build_takiff, verify_hat_closure, verify_takiff
from whittak.wfinite import (
    graded_nilradical,
    nilchar_from_e,
    solve_dual_elements,
    verify_skryabin_conditions,
)

PINNED = Path(__file__).with_name("pinned_reports.json")


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
    solve_dual_elements(t, g, e)
    edit(g.x_duals)
    return verify_skryabin_conditions(g, chi)


def skryabin_scaled_dual():
    def edit(duals):
        duals[0] = duals[0].scale(Scalar(2))

    return _gl12_skryabin(edit)


def skryabin_mixed_dual():
    def edit(duals):
        duals[1] = duals[1] + duals[2]

    return _gl12_skryabin(edit)


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
    assert rep.to_json() == json.dumps(pinned[name], sort_keys=True, indent=2)

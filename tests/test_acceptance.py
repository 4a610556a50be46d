"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (no tolerances: the ground field is Q(i)); the stated
runtime budgets are asserted where the criterion names one.

Criteria 9 and 11 ask for Whittaker vectors on the twisted Fock module F of
principal data. The paper's equivalence sends a chi-Whittaker module of the
extended algebra to a zeta-Whittaker module of the base algebra s, with
zeta = zeta_from_chi(chi). On F the base algebra acts only through the
quadratic lift, so the commutant copy x - phi(x) of s acts by zero and F
goes to the trivial s-module, which has a zeta-Whittaker vector only when
zeta = 0. Hence:

- gl(1|1) has no even positive root, so zeta = 0 and the full-radical
  Whittaker space is the line of the twisted vacuum; the word-pairing
  identities hold on it;
- gl(1|2) has zeta(E_13) = -1/c != 0, and zeta is regular, so there is no
  full-radical Whittaker vector and the pairing check has nothing to run
  on; the hat-matched character on the even radical has zeta = 0, and its
  solutions are one copy of the Clifford factor: the Clifford words on the
  twisted vacuum.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from modules import char_difference, char_product

from whittak.charfun import fock_character, verify_factorization, verma_character
from whittak.exactlin import I, ONE, ZERO, EchelonSpan, Scalar, SparseVector
from whittak.fockrep import (
    build_fock,
    clifford_module_dim,
    verify_highest_weight,
    verify_lift_identities,
    verify_whittaker_covariance,
)
from whittak.superalg import (
    ODD,
    Weight,
    build_gl,
    centralizer_dim,
    verify_algebra,
    weyl_vector,
)
from whittak.takiff import build_takiff
from whittak.wfinite import (
    appendix_pairing_check,
    enumerate_multiindices,
    eta_for_fock,
    graded_nilradical,
    hat_eta,
    nil_character,
    nilchar_from_e,
    regularity_check,
    root_pairing,
    solve_dual_elements,
    verify_skryabin_conditions,
    whittaker_vectors,
    zeta_from_chi,
)


def crit(n: int, ok: bool, desc: str) -> bool:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def unit(alg, label):
    return SparseVector.unit(alg.labels.index(label))


def takiff_of(m, n):
    a, rd = build_gl(m, n)
    t, _ = build_takiff(a, rd)
    return a, rd, t


def principal_data(m, n):
    """Principal odd nilpotent, grading element and chi for gl(m|n), |m-n| <= 1."""
    a, rd, t = takiff_of(m, n)
    d = m + n
    e = SparseVector.unit(a.labels.index("E_21"))
    for k in range(2, d):
        e = e + unit(a, f"E_{k + 1}{k}")
    h = SparseVector(
        {a.labels.index(f"E_{k}{k}"): Scalar(2 * k - d - 1) / Scalar(2) for k in range(1, d + 1)}
    )
    g = graded_nilradical(t, h)
    chi = nilchar_from_e(t, g, e)
    return a, rd, t, g, e, chi


def twisted_principal(m, n, c):
    """principal_data, the Fock module at level c twisted by chi, and zeta of chi."""
    a, rd, t, g, e, chi = principal_data(m, n)
    f = build_fock(t, c, eta_for_fock(t, chi))
    return a, rd, t, g, e, chi, f, zeta_from_chi(t, chi, c)


def barred_odd_domain(t, rd):
    """Barred vectors of the positive odd roots (even in the extension)."""
    return tuple(
        t.theta(rd.roots[i].space[0]) for i in rd.positive if rd.roots[i].parity == ODD
    )


def zeta_text(zeta) -> str:
    return "{" + ", ".join(f"{zeta.algebra.labels[k]}: {v}" for k, v in zeta.values.items()) + "}"


def same_span(us, vs) -> bool:
    """Exact equality of the spans of two lists of module vectors."""
    keys: dict = {}

    def sparse(v):
        return SparseVector({keys.setdefault(k, len(keys)): s for k, s in v.items()})

    span_u, span_v = EchelonSpan(), EchelonSpan()
    for v in us:
        span_u.add(sparse(v))
    for v in vs:
        span_v.add(sparse(v))
    return len(span_u) == len(span_v) and all(
        span_u.coordinates(sparse(v)) is not None for v in vs
    )


def clifford_words(f):
    """Products of distinct Clifford creators (the b letters and w) on the vacuum."""
    letters = f.b_vecs + ([f.w_vec] if f.has_w else [])
    words = []
    for r in range(len(letters) + 1):
        for sub in itertools.combinations(letters, r):
            v = f.vacuum()
            for x in sub:
                v = f.apply_barred(x, v)
            words.append(v)
    return words


def test_criterion_01_algebra_validity():
    """gl(m|n) for m+n <= 4 and their extensions verify exactly, < 10 s each."""
    ok = True
    worst = 0.0
    for total in range(1, 5):
        for m in range(total + 1):
            n = total - m
            a, rd = build_gl(m, n)
            t0 = time.monotonic()
            rep = verify_algebra(a)
            dt = time.monotonic() - t0
            ok &= rep.passed and dt < 10.0
            tk, _ = build_takiff(a, rd)
            t0 = time.monotonic()
            rep2 = verify_algebra(tk.total)
            dt2 = time.monotonic() - t0
            ok &= rep2.passed and dt2 < 10.0
            worst = max(worst, dt, dt2)
    assert crit(1, ok, f"algebra validity for m+n <= 4 plus extensions (worst {worst:.2f}s)")


def test_criterion_02_lift_identities():
    """Exact lift identities at three levels; zero violations, < 60 s."""
    t0 = time.monotonic()
    levels = [Scalar(1), Scalar(2), Scalar(Fraction(-1, 2))]
    ok = True
    checked = 0
    for (m, n), deg in (((1, 1), 3), ((2, 1), 2)):
        _, _, t = takiff_of(m, n)
        for c in levels:
            rep = verify_lift_identities(build_fock(t, c), max_degree=deg)
            ok &= rep.passed
            checked += rep.data["identities_checked"]
    dt = time.monotonic() - t0
    ok &= dt < 60.0
    assert crit(2, ok, f"lift identities, {checked} checks in {dt:.1f}s")


def test_criterion_03_highest_weight():
    """Vacuum eigen-equations on gl(1|1), gl(2|1), gl(2|2), exactly."""
    ok = True
    for m, n in ((1, 1), (2, 1), (2, 2)):
        _, _, t = takiff_of(m, n)
        rep = verify_highest_weight(build_fock(t, Scalar(2)))
        ok &= rep.passed
    assert crit(3, ok, "highest weight of the vacuum on three algebras")


def test_criterion_04_clifford_dimension():
    """Dimension formula for l <= 6 and the realized Clifford factor."""
    ok = True
    for ell in range(7):
        ok &= clifford_module_dim(ell, True) == 2 ** ((ell + 1) // 2)
        ok &= clifford_module_dim(ell, False) == 1
    for (m, n), ell in (((1, 1), 2), ((2, 1), 3), ((2, 2), 4), ((2, 3), 5), ((3, 3), 6)):
        _, _, t = takiff_of(m, n)
        f = build_fock(t, ONE)
        n_cliff = sum(kind == "cliff" for kind, _ in f.letters)
        ok &= 2 ** n_cliff == clifford_module_dim(ell, True)
    assert crit(4, ok, "Clifford factor dimensions, formula and realization")


def test_criterion_05_whittaker_covariance():
    """gl(2|1), eta over {0,1,2,i}^2: exact vacuum covariance and hat value."""
    a, rd, t = takiff_of(2, 1)
    pos = rd.positive_roots()
    odd_slots = [i for i, r in enumerate(pos) if r.parity == ODD]
    (even_slot,) = [i for i, r in enumerate(pos) if r.parity == 0]
    even_idx = pos[even_slot].space[0]
    bar = [t.theta(pos[i].space[0]) for i in odd_slots]
    pairing = root_pairing(a, rd)(pos[odd_slots[0]].covector, pos[odd_slots[1]].covector)
    c = ONE
    grid = [ZERO, ONE, Scalar(2), I]
    ok = True
    for v1 in grid:
        for v2 in grid:
            eta_nc = nil_character(t.total, tuple(bar), {bar[0]: v1, bar[1]: v2})
            hatted = hat_eta(t, eta_nc, c)
            ok &= hatted.value(even_idx) == pairing * v1 * v2 / c
            f = build_fock(t, c, eta_for_fock(t, eta_nc))
            rep = verify_whittaker_covariance(f, {even_slot: hatted.value(even_idx)})
            ok &= rep.checks[0].passed
    assert crit(5, ok, "vacuum covariance and hat values over the 16-point grid")


def test_criterion_06_zeta_cancellation():
    """zeta of a hat extension vanishes identically; 20 seeded samples."""
    a, rd, t = takiff_of(2, 1)
    pos = rd.positive_roots()
    bar = [t.theta(pos[i].space[0]) for i, r in enumerate(pos) if r.parity == ODD]
    rng = random.Random(0)
    pool = [
        ZERO,
        ONE,
        Scalar(2),
        Scalar(-1),
        I,
        Scalar(0, -2),
        Scalar(Fraction(1, 2)),
        Scalar(Fraction(-3, 2), 1),
    ]
    levels = [ONE, Scalar(2), Scalar(-1, 1), Scalar(Fraction(1, 3))]
    ok = True
    for _ in range(20):
        v1, v2 = rng.choice(pool), rng.choice(pool)
        c = rng.choice(levels)
        eta_nc = nil_character(t.total, tuple(bar), {bar[0]: v1, bar[1]: v2})
        zeta = zeta_from_chi(t, hat_eta(t, eta_nc, c), c)
        ok &= not zeta.values
    assert crit(6, ok, "zeta of hat extensions vanishes on 20 seeded samples (seed 0)")


def test_criterion_07_character_factorization():
    """Verma factorization at every height on gl(1|1) and gl(2|1); the shift canary must fail."""
    ok = True
    _, rd1, t1 = takiff_of(1, 1)
    ok &= verify_factorization(t1, ONE, weyl_vector(rd1, ONE)).passed

    c = Scalar(2)
    _, rd2, t2 = takiff_of(2, 1)
    lam = Weight((Scalar(1), ZERO, Scalar(-1)), c)
    ok &= verify_factorization(t2, c, lam).passed

    # canary: dropping the shift must produce a mismatch
    lam1 = weyl_vector(rd1, ONE)
    lhs = verma_character(rd1, lam1, 5, hatted=True)
    rhs = char_product(
        fock_character(rd1, ONE, 5), verma_character(rd1, lam1.restrict(), 5, hatted=False)
    )
    ok &= char_difference(lhs, rhs) is not None
    assert crit(7, ok, "character factorization at every height, canary detected")


def test_criterion_08_skryabin_conditions():
    """Dual elements plus the three conditions for gl(1|2) and gl(2|3)."""
    ok = True
    for m, n in ((1, 2), (2, 3)):
        a, rd, t, g, e, chi = principal_data(m, n)
        duals = solve_dual_elements(t, g, e)
        rep = verify_skryabin_conditions(g, chi, duals)
        ok &= rep.passed
    assert crit(8, ok, "dual-element normalization conditions on gl(1|2) and gl(2|3)")


def test_criterion_09_appendix_pairing():
    """Word-pairing identities on the twisted Fock module, weight <= 3, < 120 s.

    u^a x^a v is a recorded nonzero multiple of v and u^a x^b v = 0 for
    a > b, with v a chi-Whittaker vector of the twisted Fock module. For
    gl(1|1) zeta = 0, v is the twisted vacuum, and the identities hold at
    levels 1, 2 and -1/2. For gl(1|2) zeta is nonzero and regular, so the
    module has no chi-Whittaker vector (module docstring) and the check
    must report that instead of running.
    """
    t0 = time.monotonic()
    ok = True
    found = []
    for c in (ONE, Scalar(2), Scalar(Fraction(-1, 2))):
        a, rd, t, g, e, chi, f, zeta = twisted_principal(1, 1, c)
        duals = solve_dual_elements(t, g, e)
        rep = appendix_pairing_check(f, g, chi, duals, max_weight=3, find_trunc=3)
        scalars = rep.data["diagonal_scalars"]
        words = enumerate_multiindices(g.d, g.odd_mask, 3)
        ok &= rep.passed and not zeta.values
        ok &= len(scalars) == len(words) and all(Scalar.parse(v) for v in scalars.values())
        found.append(
            f"c={c} zeta {zeta_text(zeta)}: {rep.data['pairs_checked']} pairs, "
            f"{len(scalars)} diagonal scalars"
        )

    a, rd, t, g, e, chi, f, zeta = twisted_principal(1, 2, ONE)
    duals = solve_dual_elements(t, g, e)
    regular = regularity_check(zeta, rd).passed
    with pytest.raises(ValueError, match="no Whittaker vector") as err:
        appendix_pairing_check(f, g, chi, duals, max_weight=3, find_trunc=3)
    ok &= bool(zeta.values) and regular
    dt = time.monotonic() - t0
    ok &= dt < 120.0
    assert crit(
        9,
        ok,
        f"pairing identities: gl(1|1) {'; '.join(found)}; "
        f"gl(1|2) zeta {zeta_text(zeta)} regular={regular}: {err.value}; {dt:.1f}s",
    )


def test_criterion_10_centralizer_rank():
    """Centralizer dimension equals the even-part rank for principal e."""
    ok = True
    for (m, n), want in (((1, 2), 3), ((2, 3), 5)):
        a, _ = build_gl(m, n)
        d = m + n
        e = SparseVector.unit(a.labels.index("E_21"))
        for k in range(2, d):
            e = e + SparseVector.unit(a.labels.index(f"E_{k + 1}{k}"))
        ok &= centralizer_dim(a, e) == want
    assert crit(10, ok, "centralizer dimension 3 on gl(1|2) and 5 on gl(2|3)")


def test_criterion_11_whittaker_solver():
    """Truncated Whittaker spaces on principal regular data, truncations 3 and 4.

    gl(1|1), zeta = 0: the full-radical character gives dimension 1 at both
    truncations, stable, spanned by the twisted vacuum; a mismatched
    character gives 0. gl(1|2), zeta nonzero and regular: the full-radical
    character and a mismatched one give 0; the hat-matched even-part
    character has zeta = 0, and its solutions span exactly the Clifford
    words on the twisted vacuum (clifford_module_dim(l, True) of them),
    stable. The words solve it because [phi(E_a), Hbar] is a multiple of
    Ebar_a, which kills the vacuum for even a; nothing else does because the
    trivial module has a one-dimensional Whittaker space.
    """
    ok = True
    lines = []

    a, rd, t, g, e, chi, f, zeta = twisted_principal(1, 1, ONE)
    wb3 = whittaker_vectors(f, chi, 3)
    wb4 = whittaker_vectors(f, chi, 4)
    dom = barred_odd_domain(t, rd)
    mismatched = nil_character(t.total, dom, {dom[0]: chi.value(dom[0]) + ONE})
    wb_mm = whittaker_vectors(f, mismatched, 2)
    ok &= f.twisted and not zeta.values
    ok &= wb3.dimension == 1 and wb4.dimension == 1 and wb4.stable
    ok &= same_span(wb3.vectors, [f.vacuum()]) and same_span(wb4.vectors, [f.vacuum()])
    ok &= wb_mm.dimension == 0
    lines.append(
        f"gl(1|1) zeta {zeta_text(zeta)}: full-radical dims "
        f"({wb3.dimension}, {wb4.dimension}, stable={wb4.stable}), mismatched {wb_mm.dimension}"
    )

    a, rd, t, g, e, chi, f, zeta = twisted_principal(1, 2, ONE)
    regular = regularity_check(zeta, rd).passed
    full3 = whittaker_vectors(f, chi, 3)
    full4 = whittaker_vectors(f, chi, 4)
    dom = barred_odd_domain(t, rd)
    eta_nc = nil_character(t.total, dom, {k: chi.value(k) for k in dom})
    hatted = hat_eta(t, eta_nc, f.c)
    hat_zeta = zeta_from_chi(t, hatted, f.c)
    wb3 = whittaker_vectors(f, hatted, 3)
    wb4 = whittaker_vectors(f, hatted, 4)
    mismatched = nil_character(t.total, dom, {dom[0]: chi.value(dom[0]) + ONE})
    wb_mm = whittaker_vectors(f, mismatched, 2)
    words = clifford_words(f)
    ok &= bool(zeta.values) and regular
    ok &= full3.dimension == 0 and full4.dimension == 0 and wb_mm.dimension == 0
    ok &= not hat_zeta.values
    ok &= len(words) == clifford_module_dim(len(rd.cartan), True)
    ok &= wb3.dimension == len(words) and wb4.dimension == len(words) and wb4.stable
    ok &= same_span(wb3.vectors, words) and same_span(wb4.vectors, words)
    lines.append(
        f"gl(1|2) zeta {zeta_text(zeta)} regular={regular}: full-radical dims "
        f"({full3.dimension}, {full4.dimension}), mismatched {wb_mm.dimension}, "
        f"hat-matched zeta {zeta_text(hat_zeta)} dims ({wb3.dimension}, {wb4.dimension}, "
        f"stable={wb4.stable}) = {len(words)} Clifford words"
    )
    assert crit(11, ok, "whittaker solver: " + "; ".join(lines))

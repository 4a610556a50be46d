"""Command-line front end: build algebra files, run verifiers, solve, tabulate.

Subcommands: build, verify, whittaker, character. Reports are JSON with a
top-level "pass" field; the exit code is 0 exactly when it is true. No
command draws random numbers: --seed (default 0) is only recorded in reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import serialize
from .charfun import fock_character, verma_character, verify_factorization
from .exactlin import Scalar, SparseMatrix, SparseVector, solve
from .fockrep import build_fock, verify_highest_weight, verify_lift_identities, verify_whittaker_covariance
from .reports import Report
from .superalg import Weight, build_gl, subalgebra_from_span, verify_algebra, weyl_vector
from .takiff import build_takiff, verify_hat_closure, verify_takiff
from .wfinite import (
    appendix_pairing_check,
    eta_for_fock,
    graded_nilradical,
    hat_eta,
    nilchar_from_e,
    regularity_check,
    solve_dual_elements,
    verify_skryabin_conditions,
    whittaker_vectors,
    zeta_from_chi,
)

DEFAULT_MAX_TRUNC = 8


class UsageError(Exception):
    pass


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _nonnegative(value: int, what: str) -> int:
    if value < 0:
        raise UsageError(f"{what} must be nonnegative")
    return value


def _trunc(value: int) -> int:
    cap = int(os.environ.get("STL_MAX_TRUNC", DEFAULT_MAX_TRUNC))
    if value > cap:
        raise UsageError(f"truncation {value} exceeds the cap {cap} (STL_MAX_TRUNC)")
    return _nonnegative(value, "truncation")


def _level(text: str) -> Scalar:
    c = Scalar.parse(text)
    if not c:
        raise UsageError("the level c must be nonzero")
    return c


def _weight(t, path: str | None, default: Weight) -> Weight:
    """The weight file at path, with one value per Cartan element, or default."""
    if not path:
        return default
    lam = serialize.weight_from_dict(_load(path))
    if len(lam.values) != len(t.rd.cartan):
        raise UsageError(f"the weight has {len(lam.values)} values; the Cartan has {len(t.rd.cartan)}")
    return lam


def _grading_element(t, e: SparseVector) -> SparseVector:
    """Solve [h, e] = e over the Cartan; central shifts do not matter."""
    base = t.base
    cols = [base.bracket(SparseVector.unit(h), e) for h in t.rd.cartan]
    mat = SparseMatrix.from_columns(cols, base.dim)
    sol = solve(mat, e)
    if sol is None:
        raise UsageError("no Cartan grading element h with [h, e] = e")
    return SparseVector({t.rd.cartan[pos]: s for pos, s in sol.items()})


def _principal_data(t, args):
    if not args.e:
        raise UsageError("this suite needs --e with an element file")
    e = serialize.vector_from_dict(_load(args.e), t.base)
    h = serialize.vector_from_dict(_load(args.h), t.base) if args.h else _grading_element(t, e)
    return e, graded_nilradical(t, h)


def cmd_build(args) -> tuple[str, int]:
    if args.kind == "gl":
        a, rd = build_gl(args.m, args.n)
        out = serialize.algebra_to_dict(a)
        out["root_datum"] = serialize.root_datum_to_dict(rd)
        return serialize.dumps(out), 0
    if args.kind == "takiff":
        d = _load(args.of)
        a = serialize.algebra_from_dict(d)
        if "root_datum" not in d:
            raise UsageError("the input file carries no root datum")
        t, _ = build_takiff(a, serialize.root_datum_from_dict(d["root_datum"], a))
        return serialize.dumps(serialize.takiff_to_dict(t)), 0
    d = _load(getattr(args, "in"))  # span
    a = serialize.algebra_from_dict(d)
    sub, emb = subalgebra_from_span(a, serialize.vectors_from_dict(_load(args.gens), a), name=args.name)
    out = serialize.algebra_to_dict(sub)
    out["embedding"] = [{"i": i, "j": j, "coeff": str(s)} for (i, j), s in sorted(emb.entries.items())]
    return serialize.dumps(out), 0


def cmd_verify(args) -> tuple[str, int]:
    """The suite's report as JSON text, with --seed stamped, and exit code 0 exactly when it passes."""
    if args.suite == "algebra":
        rep = verify_algebra(serialize.algebra_from_dict(_load(args.alg)))
    else:
        rep = _extension_report(args, *serialize.takiff_from_dict(_load(args.alg)))
    rep.seed = args.seed
    return serialize.dumps(rep.to_dict()), 0 if rep.passed else 1


def _extension_report(args, t, hat) -> Report:
    """The report of an extension suite on the loaded extension t and its hat decomposition."""
    suite = args.suite
    if suite == "takiff":
        rep = verify_takiff(t)
        rep.merge(verify_hat_closure(t, hat))
        return rep

    if suite == "fock-lift":
        f = build_fock(t, _level(args.c), _eta_dict(t, args))
        return verify_lift_identities(f, _nonnegative(args.deg, "--deg"))

    if suite == "highest-weight":
        return verify_highest_weight(build_fock(t, _level(args.c)))

    if suite == "whittaker-covariance":
        c = _level(args.c)
        if not args.eta:
            raise UsageError("whittaker-covariance needs --eta with a character file")
        eta_nc = serialize.nilchar_from_dict(_load(args.eta), t.total)
        hatted = hat_eta(t, eta_nc, c)
        f = build_fock(t, c, eta_for_fock(t, eta_nc))
        chi_hat = {i: hatted.value(f.positives[i].space[0]) for i in f.grass_slots}
        return verify_whittaker_covariance(f, chi_hat)

    if suite == "factorization":
        c = _level(args.c)
        return verify_factorization(t, c, _weight(t, args.weight, weyl_vector(t.rd, c)))

    if suite == "skryabin":
        e, g = _principal_data(t, args)
        chi = nilchar_from_e(t, g, e)
        return verify_skryabin_conditions(g, chi, solve_dual_elements(t, g, e))

    if suite == "appendix":
        c = _level(args.c)
        e, g = _principal_data(t, args)
        chi = nilchar_from_e(t, g, e)
        duals = solve_dual_elements(t, g, e)
        f = build_fock(t, c, eta_for_fock(t, chi))
        bound = _nonnegative(args.weight_bound, "--weight-bound")
        return appendix_pairing_check(f, g, chi, duals, bound, _trunc(args.trunc))

    c = _level(args.c)  # regularity
    if args.chi:
        chi = serialize.nilchar_from_dict(_load(args.chi), t.total)
    elif not args.e:
        raise UsageError("regularity needs --chi or --e")
    else:
        e, g = _principal_data(t, args)
        chi = nilchar_from_e(t, g, e)
    return regularity_check(zeta_from_chi(t, chi, c), t.rd)


def _eta_dict(t, args):
    if args.eta:
        return eta_for_fock(t, serialize.nilchar_from_dict(_load(args.eta), t.total))
    return None


def cmd_whittaker(args) -> tuple[str, int]:
    t, _ = serialize.takiff_from_dict(_load(args.alg))
    c = _level(args.c)
    f = build_fock(t, c, _eta_dict(t, args))
    phi = serialize.nilchar_from_dict(_load(args.chi), t.total)
    wb = whittaker_vectors(f, phi, _trunc(args.trunc))
    out = {
        "dimension": wb.dimension,
        "previous_dimension": wb.prev_dimension,
        "stable": wb.stable,
        "vectors": [serialize.module_vector_to_dict(f, v) for v in wb.vectors],
        "report": wb.report.to_dict(),
    }
    return serialize.dumps(out), 0


def cmd_character(args) -> tuple[str, int]:
    t, _ = serialize.takiff_from_dict(_load(args.alg))
    c = _level(args.c)
    trunc = _trunc(args.trunc)
    if args.kind == "fock":
        ch = fock_character(t.rd, c, trunc)
    elif args.kind == "verma":
        ch = verma_character(t.rd, _weight(t, args.weight, weyl_vector(t.rd, c)), trunc, hatted=True)
    else:
        ch = verma_character(t.rd, _weight(t, args.weight, weyl_vector(t.rd)), trunc, hatted=False)
    if args.format == "tsv":
        lines = ["offset\tmult"]
        for o, m in ch.terms():
            lines.append(",".join(str(k) for k in o) + f"\t{m}")
        return "\n".join(lines) + "\n", 0
    return serialize.dumps(serialize.character_to_dict(ch)), 0


@functools.cache  # built once per process: each parse_args call fills a fresh namespace
def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="whittak", description=__doc__)
    p.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="emit algebra JSON files")
    bs = b.add_subparsers(dest="kind", required=True)
    bgl = bs.add_parser("gl")
    bgl.add_argument("--m", type=int, required=True)
    bgl.add_argument("--n", type=int, required=True)
    bgl.add_argument("--out")
    btak = bs.add_parser("takiff")
    btak.add_argument("--of", required=True)
    btak.add_argument("--out")
    bspan = bs.add_parser("span")
    bspan.add_argument("--in", dest="in", required=True)
    bspan.add_argument("--gens", required=True)
    bspan.add_argument("--name", default="span")
    bspan.add_argument("--out")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=(
        "algebra takiff fock-lift highest-weight whittaker-covariance factorization skryabin appendix regularity"
    ).split())
    v.add_argument("--alg", required=True)
    v.add_argument("--e")
    v.add_argument("--h")
    v.add_argument("--chi")
    v.add_argument("--eta")
    v.add_argument("--c", default="1")
    v.add_argument("--deg", type=int, default=2)
    v.add_argument("--trunc", type=int, default=4)
    v.add_argument("--weight")
    v.add_argument("--weight-bound", type=int, default=3)
    v.add_argument("--out")

    w = sub.add_parser("whittaker", help="solve for Whittaker vectors")
    w.add_argument("--alg", required=True)
    w.add_argument("--chi", required=True)
    w.add_argument("--eta")
    w.add_argument("--c", default="1")
    w.add_argument("--trunc", type=int, default=4)
    w.add_argument("--out")

    ch = sub.add_parser("character", help="emit a formal character table")
    ch.add_argument("--kind", choices=["fock", "verma", "verma-plain"], default="fock")
    ch.add_argument("--alg", required=True)
    ch.add_argument("--c", default="1")
    ch.add_argument("--trunc", type=int, default=4)
    ch.add_argument("--weight")
    ch.add_argument("--format", choices=["json", "tsv"], default="json")
    ch.add_argument("--out")

    return p


def main(argv=None) -> int:
    """Run one command and write its output, to --out or stdout; the one place the CLI writes."""
    args = make_parser().parse_args(argv)
    command = {"build": cmd_build, "verify": cmd_verify, "whittaker": cmd_whittaker, "character": cmd_character}
    try:
        text, code = command[args.command](args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (UsageError, ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark workloads: inputs made from a seed, jobs run through
the public API of whittak, and observations to compare with expected.json.

A workload is a level draw plus a set-up function and a job list. The set-up
builds every input the jobs take (algebras, extensions, Fock modules,
principal data, characters, and for `battery` its input files); a job turns
those inputs into a verdict. Jobs are timed one by one; observing a verdict
(reading report files, collecting dimensions) happens outside the timers.

The library is reached through module attributes at call time
(`fockrep.build_fock(...)`), never through names bound here at import time,
so the tracer's wrappers are seen on every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

from whittak import cli, fockrep, serialize, superalg, takiff, wfinite
from whittak.exactlin import Scalar, SparseVector

# Each job draws its level from one fixed class, so every run mixes integer,
# fractional and non-real operands in the same proportion and only the values
# move with the seed. The sets are small because the operand size, not just
# its class, changes the cost of Fraction arithmetic.
LEVEL_VALUES = {
    "integer": ["1", "2", "3", "-1", "-2"],
    "fraction": ["1/2", "-1/2", "2/3", "-2/3", "1/3", "3/4", "-3/4"],
    "gaussian": ["1+1*i", "1-1*i", "1/2+1/2*i", "2-1*i", "-1+2*i", "1/2-3/4*i"],
}


@dataclass
class Job:
    """One verification job. `run(inputs)` is timed; `observe(raw)` is not."""

    name: str
    run: Callable[[dict], Any]
    observe: Callable[[Any], dict]


@dataclass
class Workload:
    name: str
    level_slots: dict[str, str]  # level slot -> class in LEVEL_VALUES
    setup: Callable[[dict[str, Scalar], str], dict]
    jobs: list[Job]
    largest_job: str
    # spans that must record at least one call in a traced run
    expect_calls: tuple[str, ...]


# -- shared inputs -------------------------------------------------------------


def _unit(a, label: str) -> SparseVector:
    return SparseVector.unit(a.labels.index(label))


def _extension(m: int, n: int):
    a, rd = superalg.build_gl(m, n)
    t, _ = takiff.build_takiff(a, rd)
    return t


def _principal_labels(m: int, n: int) -> list[str]:
    """Matrix units summed into the principal odd nilpotent e of gl(m|n)."""
    return ["E_21"] + [f"E_{k + 1}{k}" for k in range(2, m + n)]


def _principal(m: int, n: int):
    """Extension and principal character chi for gl(m|n) with |m - n| = 1."""
    t = _extension(m, n)
    a, d = t.base, m + n
    e = _unit(a, "E_21")
    for label in _principal_labels(m, n)[1:]:
        e = e + _unit(a, label)
    h = SparseVector(
        {a.labels.index(f"E_{k}{k}"): Scalar(2 * k - d - 1) / Scalar(2) for k in range(1, d + 1)}
    )
    g = wfinite.graded_nilradical(t, h)
    return t, wfinite.nilchar_from_e(t, g, e)


def _twisted_fock(t, chi, c: Scalar):
    return fockrep.build_fock(t, c, wfinite.eta_for_fock(t, chi))


def _report_observation(rep) -> dict:
    return {"pass": rep.passed, **rep.data}


# -- lift ------------------------------------------------------------------------

# (job name, module input, degree bound). Every job takes well under a
# second, so the host seldom changes speed during one, and a run holds many
# passes to take the median of.
_LIFT_JOBS = [
    ("gl11.deg3.integer", "gl11.integer", 3),
    ("gl11.deg3.fraction", "gl11.fraction", 3),
    ("gl11.deg3.gaussian", "gl11.gaussian", 3),
    ("gl21.deg0", "gl21", 0),
    ("gl12.twisted.deg0", "gl12.twisted", 0),
]


def _lift_setup(levels: dict[str, Scalar], workdir: str) -> dict:
    t11 = _extension(1, 1)
    t12, chi12 = _principal(1, 2)
    return {
        "gl11.integer": fockrep.build_fock(t11, levels["gl11.integer"]),
        "gl11.fraction": fockrep.build_fock(t11, levels["gl11.fraction"]),
        "gl11.gaussian": fockrep.build_fock(t11, levels["gl11.gaussian"]),
        "gl21": fockrep.build_fock(_extension(2, 1), levels["gl21"]),
        "gl12.twisted": _twisted_fock(t12, chi12, levels["gl12.twisted"]),
    }


def _lift_job(name: str, module: str, deg: int) -> Job:
    return Job(
        name,
        lambda inputs: fockrep.verify_lift_identities(inputs[module], deg),
        _report_observation,
    )


LIFT = Workload(
    name="lift",
    level_slots={
        "gl11.integer": "integer",
        "gl11.fraction": "fraction",
        "gl11.gaussian": "gaussian",
        "gl21": "gaussian",
        "gl12.twisted": "fraction",
    },
    setup=_lift_setup,
    jobs=[_lift_job(*spec) for spec in _LIFT_JOBS],
    largest_job="gl12.twisted.deg0",
    expect_calls=(
        "exactlin.invert",
        "superalg.SuperAlgebra.bracket",
        "takiff.dual_bases",
        "fockrep.build_fock",
        "fockrep.FockModule.apply_barred",
        "fockrep.FockModule.apply_lift",
        "fockrep.verify_lift_identities",
    ),
)


# -- battery ---------------------------------------------------------------------

_BATTERY_ALGEBRAS = [(1, 1), (2, 1), (1, 2), (2, 2), (2, 3)]
CANARY_OF = (2, 1)


def _battery_setup(levels: dict[str, Scalar], workdir: str) -> dict:
    for m, n in _BATTERY_ALGEBRAS:
        if abs(m - n) == 1:
            coords = {label: "1" for label in _principal_labels(m, n)}
            with open(os.path.join(workdir, f"gl{m}{n}-e.json"), "w") as fh:
                json.dump({"coords": coords}, fh)
    # the canary: an extension file with one bracket coefficient of the
    # total algebra changed, its base algebra left intact
    d = serialize.takiff_to_dict(_extension(*CANARY_OF))
    entry = d["brackets"][levels["canary.entry"]]
    entry["coeff"] = str(Scalar.parse(entry["coeff"]) + Scalar(1))
    with open(os.path.join(workdir, "canary-tak.json"), "w") as fh:
        fh.write(serialize.dumps(d))
    return {"workdir": workdir, "levels": levels}


def _cli(argv: list[str]) -> Callable[[dict], tuple[int, str]]:
    """A CLI call returning (exit code, --out path). `{dir}` in argv becomes
    the pass directory and `--c=<slot>` the level drawn for that slot; error
    lines on stderr are dropped, the exit code carries the verdict."""

    def run(inputs):
        wd = inputs["workdir"]
        args = []
        for a in argv:
            if a.startswith("--c="):
                a = "--c=" + str(inputs["levels"][a[4:]])
            args.append(a.replace("{dir}", wd))
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(args)
        return code, args[args.index("--out") + 1]

    return run


def _observe_build(raw) -> dict:
    code, out = raw
    obs = {"exit": code}
    if code == 0:
        with open(out) as fh:
            obs["dim"] = json.load(fh)["dim"]
    return obs


def _observe_report(raw) -> dict:
    code, out = raw
    obs = {"exit": code}
    if os.path.exists(out):
        with open(out) as fh:
            obs["pass"] = json.load(fh)["pass"]
        os.remove(out)
    return obs


def _observe_table(raw) -> dict:
    code, out = raw
    obs = {"exit": code}
    if code == 0:
        with open(out) as fh:
            rows = fh.read().splitlines()[1:]
        obs["rows"] = len(rows)
        obs["mult_sum"] = sum(int(r.split("\t")[1]) for r in rows)
    return obs


def _battery_jobs() -> list[Job]:
    jobs = []
    for m, n in _BATTERY_ALGEBRAS:
        key = f"gl{m}{n}"
        alg, tak, rep = f"{{dir}}/{key}.json", f"{{dir}}/{key}-tak.json", f"{{dir}}/{key}-rep.json"
        specs = [
            ("build-gl", ["build", "gl", "--m", str(m), "--n", str(n), "--out", alg], _observe_build),
            ("build-takiff", ["build", "takiff", "--of", alg, "--out", tak], _observe_build),
            ("verify-algebra", ["verify", "algebra", "--alg", alg, "--out", rep], _observe_report),
            ("verify-takiff", ["verify", "takiff", "--alg", tak, "--out", rep], _observe_report),
            (
                "verify-highest-weight",
                ["verify", "highest-weight", "--alg", tak, f"--c={key}", "--out", rep],
                _observe_report,
            ),
            (
                "verify-factorization",
                ["verify", "factorization", "--alg", tak, f"--c={key}", "--trunc", "6", "--out", rep],
                _observe_report,
            ),
            (
                "character-fock",
                ["character", "--kind", "fock", "--alg", tak, f"--c={key}", "--trunc", "8",
                 "--format", "tsv", "--out", f"{{dir}}/{key}-char.tsv"],
                _observe_table,
            ),
        ]
        if abs(m - n) == 1:
            e = f"{{dir}}/{key}-e.json"
            specs += [
                ("verify-skryabin", ["verify", "skryabin", "--alg", tak, "--e", e, "--out", rep],
                 _observe_report),
                (
                    "verify-regularity",
                    ["verify", "regularity", "--alg", tak, "--e", e, f"--c={key}", "--out", rep],
                    _observe_report,
                ),
            ]
        jobs += [Job(f"{key}.{name}", _cli(argv), obs) for name, argv, obs in specs]
    canary = ["verify", "takiff", "--alg", "{dir}/canary-tak.json", "--out", "{dir}/canary-rep.json"]
    jobs.append(Job("canary.verify-takiff", _cli(canary), _observe_report))
    return jobs


BATTERY = Workload(
    name="battery",
    level_slots={
        "gl11": "integer",
        "gl21": "fraction",
        "gl12": "gaussian",
        "gl22": "fraction",
        "gl23": "integer",
    },
    setup=_battery_setup,
    jobs=_battery_jobs(),
    largest_job="gl23.verify-takiff",
    expect_calls=(
        "cli.main",
        "serialize.dumps",
        "serialize.takiff_from_dict",
        "superalg.SuperAlgebra.bracket",
        "superalg.verify_algebra",
        "takiff.verify_takiff",
        "takiff.dual_bases",
        "fockrep.build_fock",
        "charfun.fock_character",
        "charfun.verify_factorization",
        "wfinite.solve_dual_elements",
        "wfinite.regularity_check",
    ),
)

WORKLOADS = {w.name: w for w in (LIFT, BATTERY)}


def draw(workload: Workload, rng) -> dict:
    """Every seeded choice of one run: the levels, and for `battery` the
    bracket entry the canary changes."""
    levels: dict[str, Any] = {
        slot: Scalar.parse(rng.choice(LEVEL_VALUES[cls]))
        for slot, cls in workload.level_slots.items()
    }
    if workload is BATTERY:
        n_entries = len(serialize.takiff_to_dict(_extension(*CANARY_OF))["brackets"])
        levels["canary.entry"] = rng.randrange(n_entries)
    return levels


def check(expected: dict, observed: dict) -> bool:
    """True when every expected field matches; an expected exit code of
    "nonzero" accepts any failing exit (a verdict of 1 or a load error of 2)."""
    for key, want in expected.items():
        got = observed.get(key)
        if want == "nonzero":
            if not isinstance(got, int) or got == 0:
                return False
        elif got != want:
            return False
    return True

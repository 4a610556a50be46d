"""Benchmark of the whittak verifier: time to a checked verdict.

Usage:
    python3 perfbench/run.py --workload {lift,battery} --seed N \
        --seconds S --trace {0,1}

One client, one process, one thread, closed loop: each job starts when the
previous one has returned its verdict. A run makes as many passes over the
workload's job list as fit in S seconds, at least one; every pass rebuilds
its inputs, so no pass reuses state that an earlier pass built. Each verdict
is compared with perfbench/expected.json.

Every timed step runs between two probes of the host's speed, and its time
is reported at a fixed reference speed (see probe and PROBE_NOMINAL_S), so
that other tenants of a shared host move the results less.

With --trace 0 the last line of standard output reports the end-to-end
metrics; with --trace 1 it reports the per-layer metrics of one traced pass,
which runs before the untraced passes it is compared with. The line before
it records the seed, the drawn levels and the machine. The same record, and
with --trace 1 every span, is written under perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(ROOT / "src"))
try:
    import whittak
except ImportError as exc:
    print(f"error: cannot import whittak from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)
if Path(whittak.__file__).resolve().parent != ROOT / "src" / "whittak":
    print(f"error: whittak was imported from {whittak.__file__}, not from this checkout",
          file=sys.stderr)
    sys.exit(2)

import tracing  # noqa: E402
import workloads  # noqa: E402

# extra set-ups measured after every untraced pass, on top of its own
EXTRA_SETUPS = 2

# The reference speed that reported times are scaled to: the probe's time, in
# seconds, on the host this benchmark was defined on (2-vCPU Intel Xeon VM,
# Python 3.11.7). It is a fixed unit, like the second it is written in.
PROBE_NOMINAL_S = 0.004

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "largest_job_s": "s",
    "peak_rss_mib": "MiB",
    "correct_share": "share",
}

# per-layer metric -> unit; the values are computed in per_layer_metrics
PER_LAYER_UNITS = {
    "exactlin.scalar_ops": "count",
    "exactlin.scalar_int_share": "share",
    "exactlin.elim.calls": "count",
    "exactlin.elim.self_share": "share",
    "exactlin.elim.nnz": "count",
    "exactlin.elim.max_cols": "count",
    "fockrep.apply_lift.calls": "count",
    "fockrep.apply_lift.self_share": "share",
    "fockrep.apply_barred.calls": "count",
    "fockrep.apply_barred.self_share": "share",
    "fockrep.barred_actions": "count",
    "fockrep.barred_distinct_share": "share",
    "fockrep.build_fock.self_share": "share",
    "fockrep.verify.self_share": "share",
    "superalg.bracket.calls": "count",
    "superalg.bracket.self_share": "share",
    "superalg.verify_algebra.self_share": "share",
    "takiff.verify_takiff.self_share": "share",
    "takiff.dual_bases.calls": "count",
    "wfinite.dual_elements.self_share": "share",
    "charfun.self_share": "share",
    "serialize.self_share": "share",
    "serialize.bytes": "bytes",
    "cli.calls": "count",
    "cli.self_share": "share",
    "trace.traced_s": "s",
    "trace.overhead": "ratio",
}


def probe():
    """Seconds taken by a fixed standard-library loop of Fraction and dict
    operations, the kind of work whittak does: the fastest of three tries, so
    that one interrupt does not count. It reads the host's current speed: on
    a shared host, other tenants slow every process on a core by up to half,
    in spells of seconds to minutes."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        s, d = Fraction(0), {}
        for i in range(1, 2000):
            s += Fraction(i % 7, i % 11 + 1)
            k = (i % 97, i % 13)
            d[k] = d.get(k, 0) + 1
        best = min(best, time.perf_counter() - t)
    return best


class Sample:
    """Times one step; `ref_s` is its time at the reference speed: its own
    seconds scaled by the probes run right before and right after it."""

    def __init__(self, before=None):
        self.before = probe() if before is None else before
        self.start = time.perf_counter()

    def stop(self):
        self.raw_s = time.perf_counter() - self.start
        self.after = probe()
        self.ref_s = self.raw_s * PROBE_NOMINAL_S * 2 / (self.before + self.after)
        return self


def run_pass(workload, levels, expected, tracer=None):
    """Set up fresh inputs and run every job once, each between two probes.

    Returns (set-up Sample, {job: Sample}, [failed jobs]). A job fails when
    it raises or when its observation differs from the expected answer.
    """
    span = tracer.span if tracer else (lambda name, job: nullcontext())
    workdir = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    try:
        sample = Sample()
        with span("setup", -1):
            inputs = workload.setup(levels, workdir)
        setup = sample.stop()
        samples, failed = {}, []
        for j, job in enumerate(workload.jobs):
            sample = Sample(before=sample.after)
            try:
                with span(f"job.{job.name}", j):
                    raw = job.run(inputs)
                samples[job.name] = sample.stop()
                ok = workloads.check(expected[job.name], job.observe(raw))
            except Exception:  # a job that raises is a failed job, not a failed run
                samples[job.name] = sample.stop()
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                failed.append(job.name)
        return setup, samples, failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def import_seconds():
    """Time to import whittak in a fresh interpreter, at the reference speed."""
    before = probe()
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import whittak; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout) * PROBE_NOMINAL_S * 2 / (before + probe())


def setup_seconds(workload, levels):
    """Time of one set-up of fresh inputs, at the reference speed."""
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        sample = Sample()
        workload.setup(levels, workdir)
        return sample.stop().ref_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def per_layer_metrics(tracer, traced_wall, untraced_wall):
    calls, self_s, total = tracer.span_totals()
    counts = tracer.counts

    def n_calls(*names):
        return sum(calls.get(n, 0) for n in names)

    def share(*names, prefix=None):
        if prefix:
            names = [n for n in self_s if n.startswith(prefix)]
        return sum(self_s.get(n, 0.0) for n in names) / total

    def ratio(num, den):
        return num / den if den else 0.0

    barred = "fockrep.FockModule.apply_barred"
    lift = "fockrep.FockModule.apply_lift"
    bracket = "superalg.SuperAlgebra.bracket"
    values = {
        "exactlin.scalar_ops": counts["scalar_ops"],
        "exactlin.scalar_int_share": ratio(counts["scalar_int_ops"], counts["scalar_ops"]),
        "exactlin.elim.calls": n_calls(*tracing.ELIM),
        "exactlin.elim.self_share": share(*tracing.ELIM),
        "exactlin.elim.nnz": counts["elim_nnz"],
        "exactlin.elim.max_cols": counts["elim_max_cols"],
        "fockrep.apply_lift.calls": n_calls(lift),
        "fockrep.apply_lift.self_share": share(lift),
        "fockrep.apply_barred.calls": n_calls(barred),
        "fockrep.apply_barred.self_share": share(barred),
        "fockrep.barred_actions": counts["barred_actions"],
        "fockrep.barred_distinct_share": ratio(tracer.barred_distinct(), counts["barred_actions"]),
        "fockrep.build_fock.self_share": share("fockrep.build_fock"),
        "fockrep.verify.self_share": share("fockrep.verify_lift_identities"),
        "superalg.bracket.calls": n_calls(bracket),
        "superalg.bracket.self_share": share(bracket),
        "superalg.verify_algebra.self_share": share("superalg.verify_algebra"),
        "takiff.verify_takiff.self_share": share("takiff.verify_takiff"),
        "takiff.dual_bases.calls": n_calls("takiff.dual_bases"),
        "wfinite.dual_elements.self_share": share("wfinite.solve_dual_elements"),
        "charfun.self_share": share(prefix="charfun."),
        "serialize.self_share": share(prefix="serialize."),
        "serialize.bytes": counts["serialize_bytes"],
        "cli.calls": n_calls("cli.main"),
        "cli.self_share": share(prefix="cli."),
        "trace.traced_s": total,
        "trace.overhead": traced_wall / untraced_wall,
    }
    return values, calls


def source_identity():
    """Git commit of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "whittak").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)[workload.name]
    OUT.mkdir(exist_ok=True)
    levels = workloads.draw(workload, random.Random(args.seed))

    attempted = failed = 0
    failed_jobs = set()
    tracer = None
    run_start = time.perf_counter()
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, traced_samples, traced_failed = run_pass(workload, levels, expected, tracer)
        finally:
            tracer.uninstall()
        left = tracing.leftover_wrappers()
        if left:
            print(f"error: tracer wrappers left in place: {left}", file=sys.stderr)
            return 1
        attempted += len(workload.jobs)
        failed += len(traced_failed)
        failed_jobs.update(traced_failed)

    passes, setups, imports = [], [], []
    loop_start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, levels, expected))
        if tracer is None:
            # set-up samples are spread over the run, next to every pass
            setups.append(passes[-1][0].ref_s)
            setups += [setup_seconds(workload, levels) for _ in range(EXTRA_SETUPS)]
            imports.append(import_seconds())
        now = time.perf_counter()
        if now - run_start + (now - loop_start) / len(passes) > args.seconds:
            break  # another pass of average length would overrun --seconds
    attempted += len(workload.jobs) * len(passes)
    for _, _, f in passes:
        failed += len(f)
        failed_jobs.update(f)

    # each job's median over passes, at the reference speed
    job_samples = {name: [p[name] for _, p, _ in passes] for name in passes[0][1]}
    job_median = {name: statistics.median(s.ref_s for s in v) for name, v in job_samples.items()}
    wall = sum(job_median.values())
    if tracer is None:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "largest_job_s": job_median[workload.largest_job],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "correct_share": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    else:
        traced_wall = sum(s.ref_s for s in traced_samples.values())
        values, calls = per_layer_metrics(tracer, traced_wall, wall)
        silent = [name for name in workload.expect_calls if not calls.get(name)]
        if silent:
            print(f"error: traced functions recorded no call on {workload.name}: {silent}",
                  file=sys.stderr)
            return 1
        units = PER_LAYER_UNITS

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "levels": {k: str(v) for k, v in levels.items()},
        "passes": len(passes),
        "job_median_s": job_median,
        "raw_wall_s": sum(statistics.median(s.raw_s for s in v) for v in job_samples.values()),
        "failed_jobs": sorted(failed_jobs),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": source_identity(),
        "source_sha256": source_digest(),
    }
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        spans = OUT / f"{tag}-spans.tsv.gz"
        tracer.write_spans(str(spans), json.dumps(record, sort_keys=True))
        record["spans"] = str(spans.relative_to(ROOT))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    samples = {
        "job_s": {name: [s.raw_s for s in v] for name, v in job_samples.items()},
        "job_ref_s": {name: [s.ref_s for s in v] for name, v in job_samples.items()},
        "probe_s": [[s.before for s in p.values()] for _, p, _ in passes],
        "setup_s": setups,
        "import_s": imports,
    }
    (OUT / f"{tag}.json").write_text(
        json.dumps({"run": record, "samples": samples, "result": result}, indent=1) + "\n"
    )
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

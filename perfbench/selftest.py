"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that:
1. two traced runs of one workload with one seed, each in a fresh process,
   report identical counts;
2. the metric names and units printed match BENCHMARK.json;
3. after a traced pass the tracer leaves no wrapper in place, and an untraced
   pass that follows records nothing.

Exits 0 when every check holds. Uses the `battery` workload, the one that
reaches every module.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = "battery"
SEED = 7


def bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", WORKLOAD, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def deterministic(metrics: dict) -> dict:
    """Counts, and the shares computed from counts alone."""
    return {
        name: m["value"]
        for name, m in metrics.items()
        if m["unit"] in ("count", "bytes")
        or name in ("exactlin.scalar_int_share", "fockrep.barred_distinct_share")
    }


def check_counts_repeat(errors: list):
    first, second = bench(1), bench(1)
    a, b = deterministic(first["metrics"]), deterministic(second["metrics"])
    for name in sorted(a):
        if a[name] != b.get(name):
            errors.append(f"{name} differs between traced runs: {a[name]} != {b.get(name)}")
    return first


def check_names(traced: dict, errors: list):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, result in (("per_layer", traced), ("end_to_end", bench(0))):
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if want != got:
            errors.append(f"{key} metrics differ from BENCHMARK.json: {want} != {got}")
        if not result["correct"]:
            errors.append(f"{key} run reported failed jobs")


def check_uninstall(errors: list):
    sys.path.insert(0, str(HERE))
    import run
    import tracing
    import workloads

    workload = workloads.WORKLOADS[WORKLOAD]
    expected = json.loads((HERE / "expected.json").read_text())[WORKLOAD]
    levels = workloads.draw(workload, random.Random(SEED))
    run.OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_pass(workload, levels, expected, tracer)
    finally:
        tracer.uninstall()
    left = tracing.leftover_wrappers()
    if left:
        errors.append(f"wrappers left after uninstall: {left}")
    before = (dict(tracer.counts), len(tracer.span_name))
    _, _, failed = run.run_pass(workload, levels, expected)
    if failed:
        errors.append(f"untraced pass after a traced one failed jobs: {failed}")
    if (dict(tracer.counts), len(tracer.span_name)) != before:
        errors.append("an untraced pass after uninstall still recorded spans or counts")


def main():
    errors: list = []
    traced = check_counts_repeat(errors)
    check_names(traced, errors)
    check_uninstall(errors)
    for e in errors:
        print(f"FAIL: {e}")
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

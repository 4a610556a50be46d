#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against this checkout.

Usage:
    python3 scripts/bench_pair.py --parent SHA --runs N [--workload W ...] [--script PATH ...]
        [--label NAME] [--seed0 K]

The parent commit is extracted with `git archive` into a temporary directory
(no worktree is registered). The change side is a copy of this checkout's
working tree (the files git tracks or would track), identified by its HEAD sha,
a dirty flag and the `source_sha256` that run.py records. Neither tree holds a
bytecode cache, and every run has PYTHONDONTWRITEBYTECODE=1, so each side
compiles the package on every import and `setup_s` (which counts a fresh
interpreter's `import whittak`) compares like with like. The standard library
keeps its installed bytecode on both sides.

For each workload, pair i runs
`python3 perfbench/run.py --workload W --seed K+i --seconds S --trace 0` once in
each tree, with S the `run_seconds` of BENCHMARK.json; even pairs run the
parent first and odd pairs the change first.

For each --script, pair i runs `python3 PATH` once in each tree, in the same
alternating order, with the tree as working directory and PYTHONPATH set to the
tree's `src`. The script's last stdout line must be a JSON object of metric ->
seconds, lower is better. The same script file times both trees.

Writes BENCH_<label>.json at the repository root with the Python version,
platform, nproc, the bytecode settings, both shas, the seeds, every run's
metrics, each side's median and quartiles per metric, and the change's win
counts over the pairs (ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# every run compiles the package afresh and writes no cache for the next run
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(sha: str, dest: Path) -> None:
    """The committed files of `sha`, unpacked under `dest`."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", sha], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def snapshot(dest: Path) -> None:
    """The working tree's files that git tracks or would track, copied under `dest`."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if name and (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run.py in `tree`: its run record and result lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=ENV, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: run.py in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return {"run": json.loads(lines[-2])["run"], "result": json.loads(lines[-1])}


def run_script(tree: Path, script: Path) -> dict:
    """One run of a timing script against `tree`'s package: its metric -> seconds object."""
    env = dict(ENV, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {script} in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def compare(par: list[float], chg: list[float], lower: bool) -> dict:
    """Both sides' spreads and the change's wins, losses and ties over the pairs."""
    wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
    losses = sum((c > p) if lower else (c < p) for p, c in zip(par, chg))
    return {
        "parent": spread(par),
        "change": spread(chg),
        "change_wins": wins,
        "parent_wins": losses,
        "ties": len(par) - wins - losses,
    }


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name = m["name"]
        par = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        chg = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     **compare(par, chg, m["better"] == "lower")}
    return out


def paired(runs: int, run) -> tuple[list[dict], list[str]]:
    """`runs` pairs of run(side, i), alternating which side goes first."""
    pairs, first = [], []
    for i in range(runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pairs.append({side: run(side, i) for side in order})
        first.append(order[0])
    return pairs, first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--runs", type=int, required=True, help="pairs per workload, at least 2")
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--script", action="append", default=[], type=Path,
                    help="timing script whose last stdout line is a JSON object of metric -> seconds")
    ap.add_argument("--label", default="pair", help="names the output BENCH_<label>.json")
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    if not args.workload and not args.script:
        ap.error("give at least one --workload or --script")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parent_sha = git("rev-parse", args.parent)
    change = {
        "sha": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench", "scripts")),
    }
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "bytecode": {
            "PYTHONDONTWRITEBYTECODE": ENV["PYTHONDONTWRITEBYTECODE"],
            "trees": "fresh copies without __pycache__: git archive of the parent, "
                     "the working tree's tracked and unignored files for the change",
        },
        "parent": {"sha": parent_sha},
        "change": change,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for tree in trees.values():
            tree.mkdir()
        extract(parent_sha, trees["parent"])
        snapshot(trees["change"])
        for workload in args.workload:
            seeds = [args.seed0 + i for i in range(args.runs)]

            def run(side, i):
                r = run_once(trees[side], workload, seeds[i], seconds)
                print(f"{workload} seed {seeds[i]} {side}: "
                      f"{r['result']['metrics']['wall_s']['value']:.3f} s wall", file=sys.stderr)
                return r

            pairs, first = paired(args.runs, run)
            for side in ("parent", "change"):
                record[side]["source_sha256"] = pairs[0][side]["run"]["source_sha256"]
            record["workloads"][workload] = {
                "seeds": seeds,
                "first": first,
                "correct": {s: all(p[s]["result"]["correct"] for p in pairs)
                            for s in ("parent", "change")},
                "metrics": summarize(pairs, bench["end_to_end"]),
            }
        for script in args.script:
            path = script.resolve()

            def run(side, i):
                r = run_script(trees[side], path)
                print(f"{script} pair {i} {side}: {json.dumps(r, sort_keys=True)}", file=sys.stderr)
                return r

            pairs, first = paired(args.runs, run)
            record.setdefault("scripts", {})[str(script)] = {
                "first": first,
                "metrics": {
                    name: {"unit": "s", "better": "lower",
                           **compare([p["parent"][name] for p in pairs],
                                     [p["change"][name] for p in pairs], True)}
                    for name in sorted(pairs[0]["change"])
                },
            }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time the exact extension loader and the extension checks on gl(2|3).

Usage: PYTHONPATH=src python3 scripts/time_extension_checks.py [--reps 30]

Builds the gl(2|3) extension file as `build takiff` writes it, then times
`serialize.takiff_from_dict` on it, `verify_algebra` on the extension and
`verify_takiff`, each as the median of --reps calls in this process.
`load_gl22_s` and `load_gl23_s` time what one CLI call pays to load the
gl(2|2) and gl(2|3) extension files: `json.loads` of the written text plus
`takiff_from_dict`. `dumps_gl22_s` and `dumps_gl23_s` time what `build takiff`
pays to write those files: `serialize.dumps(serialize.takiff_to_dict(t))`.
The last stdout line is a JSON object of metric -> seconds
(lower is better), the form `scripts/bench_pair.py --script` reads. The
package is imported from PYTHONPATH, so the same script times any checkout's
`src`.
"""

import argparse
import json
import statistics
import time

from whittak import serialize
from whittak.superalg import build_gl, verify_algebra
from whittak.takiff import build_takiff, verify_takiff


def median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=30, help="calls per metric")
    args = ap.parse_args()

    texts, extensions = {}, {}
    for m, n in ((2, 2), (2, 3)):  # gl(2|3) last: t is its extension below
        a, rd = build_gl(m, n)
        t, _ = build_takiff(a, rd)
        extensions[f"gl{m}{n}"] = t
        texts[f"gl{m}{n}"] = serialize.dumps(serialize.takiff_to_dict(t))
    d = json.loads(texts["gl23"])
    if not verify_takiff(t).passed:
        raise SystemExit("error: the gl(2|3) extension fails verify_takiff")
    metrics = {
        "takiff_from_dict_s": median_time(lambda: serialize.takiff_from_dict(d), args.reps),
        "verify_algebra_s": median_time(lambda: verify_algebra(t.total), args.reps),
        "verify_takiff_s": median_time(lambda: verify_takiff(t), args.reps),
    }
    for key, text in texts.items():
        metrics[f"load_{key}_s"] = median_time(lambda: serialize.takiff_from_dict(json.loads(text)), args.reps)
    for key, ext in extensions.items():
        metrics[f"dumps_{key}_s"] = median_time(lambda: serialize.dumps(serialize.takiff_to_dict(ext)), args.reps)
    print(json.dumps(metrics, sort_keys=True))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the router simulator's benchmark from source and run it.

One run (what BENCHMARK.json names):

    python3 perfbench/run.py --workload line64 --seed 1 --seconds 10 --trace 0

builds perfbench/main.exe with dune into .bench_build/ at the root of the
checkout, runs it, and passes its output through unchanged: the last line
is one JSON object with "correct", "attempted", "failed" and "metrics".

Steadiness mode, for setting and checking the bounds in BENCHMARK.json:

    python3 perfbench/run.py --steady 10 [--seconds 10]

runs each workload N times with seeds 1..N, alternating the workload order
from round to round, and prints each metric's median, quartiles and
quartile spread as a share of the median.  Runs outside 1.5 quartile
spreads of the quartiles are listed as outliers; none is dropped.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ["line64", "flows_churn", "cluster4"]


def build():
    """Build the benchmark executable; exit 2 if the sources are missing."""
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.stderr.write("run.py: %s not found under %s; not a source checkout\n" % (need, ROOT))
            sys.exit(2)
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.stderr.write("run.py: build failed\n")
        sys.exit(2)


def run_once(workload, seed, seconds, trace, capture):
    args = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", os.path.join(ROOT, ".bench_build")]
    if not capture:
        return subprocess.run(args, cwd=ROOT).returncode, None
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE)
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def steady(n, seconds, trace):
    values = {w: {} for w in WORKLOADS}
    shares = {w: set() for w in WORKLOADS}
    for k in range(n):
        order = WORKLOADS if k % 2 == 0 else list(reversed(WORKLOADS))
        for w in order:
            code, res = run_once(w, k + 1, seconds, trace, capture=True)
            if code != 0 or res is None or not res["correct"]:
                print("%s seed %d: FAILED (exit %d)" % (w, k + 1, code), flush=True)
                continue
            shares[w].add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append((k + 1, m["value"], m["unit"]))
            print("%s seed %d: %s" % (w, k + 1, "  ".join(
                "%s=%.6g" % (name, m["value"]) for name, m in res["metrics"].items())), flush=True)
    print()
    print("%-12s %-34s %14s %14s %14s %8s" % ("workload", "metric", "median", "q1", "q3", "spread"))
    for w in WORKLOADS:
        for name, rows in values[w].items():
            xs = [x for _, x, _ in rows]
            med = statistics.median(xs)
            if len(xs) >= 2:
                q1, _, q3 = statistics.quantiles(xs, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print("%-12s %-34s %14.6g %14.6g %14.6g %7.1f%%  %s" % (
                w, name, med, q1, q3, 100 * spread, rows[0][2]))
            iqr = q3 - q1
            for seed, x, _ in rows:
                if x < q1 - 1.5 * iqr or x > q3 + 1.5 * iqr:
                    print("%-12s   outlier: seed %d gave %.6g" % ("", seed, x))
        print("%-12s failed share over runs: %s" % (w, sorted(shares[w])))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="N")
    a = ap.parse_args()
    if a.steady is None and a.workload is None:
        ap.error("--workload or --steady is required")
    build()
    if a.steady is not None:
        steady(a.steady, a.seconds, a.trace)
        return 0
    code, _ = run_once(a.workload, a.seed, a.seconds, a.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())

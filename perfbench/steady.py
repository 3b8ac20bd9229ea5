#!/usr/bin/env python3
"""Steadiness check: run each workload N times, print median and quartiles.

    python3 perfbench/steady.py --runs 10 [--workloads gen-deep,...]
                                [--seed0 100] [--trace 0]

Each run uses its own seed (seed0, seed0+1, ...), as the acceptance check
does.  For every metric the table shows the median, the quartiles, the
spread (q3 - q1) / median, and the metric's bound from BENCHMARK.json;
`steady` marks a spread below a third of the bound, `ok` one within the
bound, and `WIDE` one beyond it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0, root=None):
    """One benchmark call; returns the parsed result line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if root:
        cmd += ["--root", root]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d exited with %d" % (workload, seed,
                                                         proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - t0
    # "test-set <label> <digest>" lines, one per produced test set.
    result["digests"] = dict(line.split()[1:3] for line in lines
                             if line.startswith("test-set "))
    return result


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.seed0 + i, bench["run_seconds"],
                         args.trace)
            results.append(r)
            print("%s seed %d: %.1fs wall, correct=%s" % (
                workload, args.seed0 + i, r["wall_s"], r["correct"]),
                file=sys.stderr, flush=True)
        print("\n%s (%d runs, seeds %d..%d)" % (
            workload, args.runs, args.seed0, args.seed0 + args.runs - 1))
        print("  %-28s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = ("steady" if s < bound / 3 else
                           "ok" if s <= bound else "WIDE")
            print("  %-28s %12.6g %12.6g %12.6g %8.4f %6s %s" % (
                name, med, q1, q3, s, bound if bound is not None else "-",
                verdict))
        walls = [r["wall_s"] for r in results]
        print("  wall per run: median %.1fs, max %.1fs; failed runs: %d" % (
            statistics.median(walls), max(walls),
            sum(1 for r in results if not r["correct"])))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Parent-vs-change A/B comparison with this checkout's benchmark code.

    python3 perfbench/compare.py --parent ../parent-checkout --change . \
        [--pairs 10] [--workloads gen-deep,...] [--seed0 500]

Both trees are built and measured by the same benchmark code (this
directory), with the run length from BENCHMARK.json.  Pair i runs seed
seed0+i on both sides, alternating which side runs first.  Each workload
gets its own table; for every end-to-end metric it reports each side's
median and quartiles, how many pairs the change won (ties count for
neither), and a verdict by these rules:

  gain        at least 10 pairs ran, the change won >= 9/10 of them, and
              the medians differ by more than the parent's quartile spread
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's spread exceeds the bound, and not every change
              run beats every parent run
  same        none of the above

Every run also lists the digest of each test set it produced.  The
program's test sets must not depend on the code's speed, so any seed whose
digest differs between parent and change is listed under the table.
"""

import argparse
import os
import sys

import steady


def better(a, b, direction):
    """True when value a beats value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    p1, pm, p3 = steady.quartiles(parent)
    _, cm, _ = steady.quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    worse_by = (cm - pm) / pm if direction == "lower" else (pm - cm) / pm
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if (len(parent) >= 10 and wins >= 0.9 * len(parent)
            and abs(cm - pm) > (p3 - p1)):
        return wins, "gain"
    if worse_by > bound:
        return wins, "regression"
    if (p3 - p1) / pm > bound and not all_better:
        return wins, "unresolved"
    return wins, "same"


def main():
    bench = steady.load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent source tree")
    ap.add_argument("--change", required=True, help="changed source tree")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed0", type=int, default=500)
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    for workload in args.workloads.split(","):
        values = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                r = steady.run_once(workload, args.seed0 + i,
                                    bench["run_seconds"], root=sides[side])
                if not r["correct"]:
                    print("%s: %s run of seed %d failed its output check" % (
                        workload, side, args.seed0 + i), file=sys.stderr)
                values[side].append(r)
        print("\n%s (%d pairs, seeds %d..%d)" % (
            workload, args.pairs, args.seed0, args.seed0 + args.pairs - 1))
        print("  %-22s %-32s %-32s %5s  %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "wins", "verdict"))
        failed = {s: sum(r["failed"] for r in values[s]) for s in values}
        for name, m in metrics.items():
            pv = [r["metrics"][name]["value"] for r in values["parent"]]
            cv = [r["metrics"][name]["value"] for r in values["change"]]
            wins, v = verdict(pv, cv, m["better"], m["bound"])
            if v == "gain" and failed["change"] > failed["parent"]:
                v = "same (a gain does not count: more operations failed)"
            fmt = lambda q: "%.5g [%.5g, %.5g]" % (q[1], q[0], q[2])
            print("  %-22s %-32s %-32s %2d/%-2d  %s" % (
                name, fmt(steady.quartiles(pv)), fmt(steady.quartiles(cv)),
                wins, args.pairs, v))
        print("  failed operations: parent %d, change %d" % (
            failed["parent"], failed["change"]))
        for i, (p, c) in enumerate(zip(values["parent"], values["change"])):
            differ = sorted(k for k in set(p["digests"]) | set(c["digests"])
                            if p["digests"].get(k) != c["digests"].get(k))
            if differ:
                print("  TEST SETS DIFFER on seed %d: %s" % (
                    args.seed0 + i, ", ".join(differ)))


if __name__ == "__main__":
    main()

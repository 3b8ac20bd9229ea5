#!/usr/bin/env python3
"""The repo benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload gen-deep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The first call builds the library
and the benchmark's own harness (perfbench/CMakeLists.txt, Release) into
.bench_build/; later calls reuse that build.  The workloads, the metrics and
how each one is measured are described in perfbench/README.md.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics of
untraced runs; --trace 1 reports the per-layer metrics from traced runs.
Exit codes: 0 result printed, 1 build or run failure, 2 bad arguments or not
a source checkout.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time

import metrics as M
import serve_load

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("gen-deep", "gen-wide-parallel", "serve-sliced")

# Generator workloads: profile, evaluation threads and fault-sim backend.
GEN = {
    "gen-deep": {"profile": "s526", "threads": 1, "backend": "event"},
    "gen-wide-parallel": {"profile": "s1196", "threads": 4,
                          "backend": "levelized"},
}

# GA seeds per generator call.  Several, because a single GA seed's run time
# and test length vary by 10-20% from seed to seed; no more, because the
# reference pass runs them 4 at a time and a second round of it would not
# fit the call's time.
SEEDS_PER_CALL = 4


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


# ---- build --------------------------------------------------------------------


def build(root):
    """Configure and build the harness against the source tree at `root`;
    returns the binary directory."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no source tree at %s (run from the root of a checkout)" % root, 2)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    root = os.path.abspath(root)
    if root == os.path.dirname(HERE):
        bdir = os.path.join(root, ".bench_build", "perfbench")
    else:
        # Another tree measured with this benchmark code (compare.py): build
        # in this checkout, one directory per tree.
        tag = hashlib.sha1(root.encode()).hexdigest()[:12]
        bdir = os.path.join(os.path.dirname(HERE), ".bench_build", "ab-" + tag)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
               "-DGATEST_ROOT=" + root]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return bdir


def harness(bdir, *args):
    """Run perfbench_gen and parse its JSON output."""
    cmd = [os.path.join(bdir, "perfbench_gen")] + [str(a) for a in args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=170)
    if proc.returncode != 0:
        fail("%s exited with %d" % (" ".join(cmd[:2]), proc.returncode))
    return json.loads(proc.stdout)


def ga_seeds(workload, seed, count):
    rng = random.Random("%s:%d" % (workload, seed))
    return [rng.randrange(1, 2**31) for _ in range(count)]


# ---- generator workloads ---------------------------------------------------------------


def check_runs(runs, refs):
    """Count runs that did not complete or differ from their reference."""
    failed = 0
    for r in runs:
        ref = refs.get(r["seed"])
        ok = (ref is not None and r["stop"] == "completed" and r["resim_ok"]
              and r["digest"] == ref["digest"]
              and r["detected"] == ref["detected"])
        if not ok:
            log("run of seed %d failed its check: %s" % (r["seed"], r))
            failed += 1
    return failed


def gen_workload(bdir, workload, seed, seconds, trace, tmp):
    w = GEN[workload]
    threads = min(w["threads"], os.cpu_count() or 1)
    seeds = ga_seeds(workload, seed, SEEDS_PER_CALL)
    if trace:
        # Each traced seed also runs untraced, so trace runs use half the seeds.
        seeds = seeds[: max(1, len(seeds) // 2)]
    # References come from a separate process even for gen-deep, whose runs
    # use the reference configuration: the measured process runs set-up
    # repetitions and several passes first, and must still agree with a
    # fresh process.
    t0 = time.monotonic()
    refs = harness(bdir, "reference",
                   "--profiles", ",".join([w["profile"]] * len(seeds)),
                   "--seeds", ",".join(map(str, seeds)))["refs"]
    refs = {r["seed"]: r for r in refs}
    log("%s: references in %.1fs" % (workload, time.monotonic() - t0))
    args = ["run", "--profile", w["profile"], "--threads", threads,
            "--backend", w["backend"], "--seeds", ",".join(map(str, seeds)),
            "--seconds", seconds]
    trace_file = os.path.join(tmp, "gen_trace.jsonl")
    if trace:
        args += ["--trace-file", trace_file]
    out = harness(bdir, *args)
    runs = out["runs"]
    failed = check_runs(runs, refs)
    attempted = len(runs)
    digests = {"ga-seed-%d" % r["seed"]: r["digest"] for r in runs}

    if trace:
        metrics = M.gen_layer_metrics(out, trace_file, workload)
        return attempted, failed, metrics, digests

    setup = out["setup"]
    first_pass = runs[: len(seeds)]
    run_s = [r["seconds"] for r in runs]
    latency = [r["setup_seconds"] + r["seconds"] for r in runs]
    pct, tail_v = M.tail(latency)
    log("%s: job_latency_tail_s is p%.1f over %d runs" % (workload, pct,
                                                            len(latency)))
    metrics = {
        "run_s": M.median(run_s),
        "setup_s": M.median(setup["setup_s"]),
        "faults_detected": sum(r["detected"] for r in first_pass),
        "test_length": sum(r["vectors"] for r in first_pass),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
        "job_latency_p50_s": M.quantile(latency, 0.5),
        "job_latency_tail_s": tail_v,
        "jobs_per_s": len(latency) / sum(latency),
    }
    return attempted, failed, metrics, digests


# ---- main ----------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="source tree to measure (default: this checkout)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    bdir = build(args.root)
    tmp = os.path.join(bdir, "run-%d" % os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        if args.workload in GEN:
            attempted, failed, metrics, digests = gen_workload(
                bdir, args.workload, args.seed, args.seconds, args.trace, tmp)
        else:
            attempted, failed, metrics, digests = serve_load.serve_workload(
                bdir, args.seed, args.seconds, args.trace, tmp,
                lambda *a: harness(bdir, *a))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    table = ([(n, u) for n, u, _ in M.PER_LAYER] if args.trace
             else M.END_TO_END)
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in table}
    # One line per produced test set; compare.py matches them across trees.
    for label in sorted(digests):
        print("test-set %s %s" % (label, digests[label]))
    for name, m in result.items():
        print("%-28s %16.6g %s" % (name, m["value"], m["unit"]))
    print("%-28s %16.6g (failed %d of %d attempted)" % (
        "failed_ratio", failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))


if __name__ == "__main__":
    main()

"""Metric tables, statistics and trace analysis shared by the workloads.

Per-layer metrics come from three sources, all outside the library:
  * perfbench_gen's own timings of public calls (set-up, prover,
    checkpoint, and the layer-replay stage of FaultSimBackend calls);
  * the generator's RunTelemetry metrics snapshot (fsim work counters);
  * the JSONL trace the generator or daemon writes (phase, ga_run,
    generation and fsim_commit spans; serve job events).
A metric a workload does not exercise reports 0 (see README.md).
"""

import json
import math
import statistics
import sys

END_TO_END = [
    ("run_s", "s"), ("setup_s", "s"), ("faults_detected", "count"),
    ("test_length", "count"), ("peak_rss_mb", "MB"),
    ("job_latency_p50_s", "s"), ("job_latency_tail_s", "s"),
    ("jobs_per_s", "1/s"),
]

PHASES = ("init_ffs", "detect", "detect_activity", "sequences")

FSIM_COUNTERS = ("frames_simulated", "candidate_evaluations",
                 "vectors_committed", "fault_groups", "fault_group_lanes",
                 "good_events", "faulty_events")

# (name, unit, better)
PER_LAYER = (
    [("circuitgen.build_s", "s", "lower"), ("fault.collapse_s", "s", "lower"),
     ("analysis.prove_s", "s", "lower")]
    + [("fsim." + c, "count", "lower") for c in FSIM_COUNTERS]
    + [("fsim.packed_utilization", "ratio", "higher"),
       ("fsim.frames_per_s", "1/s", "higher"),
       ("fsim.make_backend_us", "us", "lower"),
       ("fsim.eval_sequence_us", "us", "lower"),
       ("fsim.eval_vector_us", "us", "lower"),
       ("fsim.apply_vector_us", "us", "lower"),
       ("fsim.replay_s", "s", "lower"),
       ("fsim.snapshot_us", "us", "lower"),
       ("fsim.restore_us", "us", "lower"),
       ("ga.select_s", "s", "lower"), ("ga.breed_s", "s", "lower"),
       ("ga.runs", "count", "lower"), ("ga.generations", "count", "lower"),
       ("ga.useful_ratio", "ratio", "higher")]
    + [("phase.%s_s" % p, "s", "lower") for p in PHASES]
    + [("fitness.eval_s", "s", "lower"), ("fitness.evals", "count", "lower"),
       ("fitness.evals.sequences", "count", "lower"),
       ("gatest.construct_s", "s", "lower"), ("gatest.commit_s", "s", "lower"),
       ("gatest.checkpoint_make_us", "us", "lower"),
       ("gatest.checkpoint_restore_s", "s", "lower"),
       ("parallel.chunk_s", "s", "lower"),
       ("parallel.imbalance_ratio", "ratio", "lower"),
       ("serve.submit_ack_ms", "ms", "lower"),
       ("serve.queue_wait_s", "s", "lower"),
       ("serve.slice_resume_s", "s", "lower"),
       ("serve.slices_per_job", "count", "lower"),
       ("serve.worker_busy_ratio", "ratio", "higher"),
       ("ledger.gatest_self_s", "s", "lower"),
       ("ledger.ga_self_s", "s", "lower"),
       ("ledger.fitness_eval_self_s", "s", "lower"),
       ("ledger.fsim_commit_self_s", "s", "lower"),
       ("ledger.coverage", "ratio", "higher"),
       ("trace.overhead", "ratio", "lower")]
)


def median(xs):
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile (0 < p < 1): a mean of all
    order statistics weighted by Beta(p(n+1), (1-p)(n+1)).  Where the
    percentile falls between two circuits' latency clusters, it moves less
    from run to run than the one or two order statistics a plain percentile
    picks."""
    s = sorted(xs)
    n = len(s)
    if n == 1:
        return s[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) +
                        (b - 1) * math.log1p(-x))

    # Weight of order statistic i: the Beta mass on ((i-1)/n, i/n], by the
    # trapezoid rule on `steps` points per interval.
    steps = 200
    h = 1.0 / (n * steps)
    weights, prev = [], pdf(0.0)
    for i in range(n):
        w = 0.0
        for k in range(1, steps + 1):
            cur = pdf((i * steps + k) * h)
            w += (prev + cur) * h / 2
            prev = cur
        weights.append(w)
    return sum(w * x for w, x in zip(weights, s)) / sum(weights)


def tail(xs):
    """(percentile, value): the highest percentile with at least 10 samples
    above it, estimated by quantile().  With 10 or fewer samples no
    percentile qualifies; p50 is reported then, since the maximum of a
    handful of runs mostly measures noise."""
    n = len(xs)
    if n <= 10:
        return 50.0, quantile(xs, 0.5)
    return 100.0 * (n - 10) / n, quantile(xs, (n - 10) / n)


# ---- trace parsing ------------------------------------------------------------


def read_trace(path):
    """Split a JSONL trace into runs of the generator.

    Returns a list of dicts, one per completed `run` span: its spans (id ->
    type, start, end, parent, end-event fields), its generation events, and
    the GA runs followed by a commit.  Lines of one run share a trace id
    (served jobs) or follow a perfbench_run marker (in-process runs)."""
    runs = {}
    open_run = {}   # trace key -> current run record
    marker = 0
    with open(path) as f:
        for line in f:
            ev = json.loads(line)
            kind = ev.get("type", "")
            if kind == "perfbench_run":
                marker += 1
                continue
            key = (ev.get("trace", 0), marker)
            if kind == "run_begin":
                run = {"spans": {}, "generations": [], "ga_order": [],
                       "useful": set()}
                runs[(key, ev["span"])] = run
                open_run[key] = run
            run = open_run.get(key)
            if run is None:
                continue
            if kind.endswith("_begin"):
                run["spans"][ev["span"]] = {
                    "type": kind[: -len("_begin")], "start": ev["ts"],
                    "end": None, "parent": ev.get("parent", 0)}
                if kind == "ga_run_begin":
                    run["ga_order"].append(ev["span"])
            elif ev.get("span_end"):
                sp = run["spans"].get(ev["span"])
                if sp is not None:
                    sp["end"] = ev["ts"]
                    sp["fields"] = ev
                if kind == "run_end":
                    open_run.pop(key, None)
            elif kind == "generation":
                run["generations"].append(ev)
            elif kind == "commit":
                # A commit right after a GA run marks that run as useful.
                if run["ga_order"]:
                    run["useful"].add(run["ga_order"][-1])
    return [r for r in runs.values()
            if any(s["type"] == "run" and s["end"] is not None
                   for s in r["spans"].values())]


def dur(sp):
    return sp["end"] - sp["start"] if sp["end"] is not None else 0.0


def trace_metrics(runs):
    """GA, phase, fitness and commit totals plus the self-time ledger."""
    m = {"ga.select_s": 0.0, "ga.breed_s": 0.0, "ga.runs": 0,
         "ga.generations": 0, "fitness.eval_s": 0.0, "fitness.evals": 0,
         "fitness.evals.sequences": 0, "gatest.commit_s": 0.0,
         "ledger.gatest_self_s": 0.0, "ledger.ga_self_s": 0.0,
         "ledger.fitness_eval_self_s": 0.0, "ledger.fsim_commit_self_s": 0.0}
    for p in PHASES:
        m["phase.%s_s" % p] = 0.0
    useful = 0
    run_spans = 0.0
    attributed = 0.0
    for run in runs:
        spans = run["spans"]
        child_time = {}
        for sp in spans.values():
            child_time[sp["parent"]] = child_time.get(sp["parent"], 0.0) + dur(sp)
        eval_in = {}
        for g in run["generations"]:
            m["ga.select_s"] += g["select_s"]
            m["ga.breed_s"] += g["breed_s"]
            m["fitness.eval_s"] += g["eval_s"]
            m["fitness.evals"] += g["evals"]
            if g["phase"] == "sequences":
                m["fitness.evals.sequences"] += g["evals"]
            eval_in[g["span"]] = eval_in.get(g["span"], 0.0) + g["eval_s"]
        m["ga.generations"] += len(run["generations"])
        useful += len(run["useful"])
        for sid, sp in spans.items():
            d = dur(sp)
            self_t = d - child_time.get(sid, 0.0)
            if sp["type"] == "run":
                run_spans += d
                attributed += child_time.get(sid, 0.0)
                m["ledger.gatest_self_s"] += self_t
            elif sp["type"] == "phase":
                m["phase.%s_s" % sp["fields"]["phase"]] += d
                m["ledger.gatest_self_s"] += self_t
            elif sp["type"] == "ga_run":
                m["ga.runs"] += 1
                e = eval_in.get(sid, 0.0)
                m["ledger.fitness_eval_self_s"] += e
                m["ledger.ga_self_s"] += self_t - e
            elif sp["type"] == "fsim_commit":
                m["gatest.commit_s"] += d
                m["ledger.fsim_commit_self_s"] += self_t
    m["ga.useful_ratio"] = useful / m["ga.runs"] if m["ga.runs"] else 0.0
    return m, attributed, run_spans


def replay_metrics(replay, ckpt):
    return {
        "fsim.make_backend_us": median(replay["make_backend_us"]),
        "fsim.eval_sequence_us": median(replay["eval_sequence_us"]),
        "fsim.eval_vector_us": median(replay["eval_vector_us"]),
        "fsim.apply_vector_us": median(replay["apply_vector_us"]),
        "fsim.replay_s": median(replay["replay_s"]),
        "fsim.snapshot_us": median(replay["snapshot_us"]),
        "fsim.restore_us": median(replay["restore_us"]),
        "gatest.checkpoint_make_us": median(ckpt["make_us"]),
        "gatest.checkpoint_restore_s": median(ckpt["restore_s"]),
    }


def zeros():
    return {name: 0 for name, _, _ in PER_LAYER}


def gen_layer_metrics(out, trace_file, workload):
    """Per-layer metrics of a traced generator workload."""
    m = zeros()
    setup = out["setup"]
    m["circuitgen.build_s"] = median(setup["build_s"])
    m["fault.collapse_s"] = median(setup["collapse_s"])
    m["gatest.construct_s"] = median(setup["construct_s"])
    traced = [r for r in out["runs"] if r["traced"]]
    untraced = [r for r in out["runs"] if not r["traced"]]

    counters, width = {}, 64
    chunk_s, imb_sum, imb_n = 0.0, 0.0, 0
    for r in traced:
        snap = r["metrics"]
        for c in FSIM_COUNTERS:
            counters[c] = counters.get(c, 0) + snap["counters"]["fsim." + c]
        width = snap["gauges"]["fsim.lane_width"]
        hist = snap.get("histograms", {})
        if "parallel.chunk_seconds" in hist:
            chunk_s += hist["parallel.chunk_seconds"]["sum"]
        if "parallel.imbalance_ratio" in hist:
            imb_sum += hist["parallel.imbalance_ratio"]["sum"]
            imb_n += hist["parallel.imbalance_ratio"]["count"]
    for c in FSIM_COUNTERS:
        m["fsim." + c] = counters[c]
    groups, lanes = counters["fault_groups"], counters["fault_group_lanes"]
    m["fsim.packed_utilization"] = lanes / (width * groups) if groups else 0.0
    untraced_s = sum(r["seconds"] for r in untraced)
    m["fsim.frames_per_s"] = counters["frames_simulated"] / untraced_s
    m["parallel.chunk_s"] = chunk_s
    m["parallel.imbalance_ratio"] = imb_sum / imb_n if imb_n else 0.0
    m.update(replay_metrics(out["replay"], out["checkpoint"]))
    if out["replay"]["avx2"] >= 0:
        print("perfbench: levelized sweep dispatch: %s" % (
            "avx2" if out["replay"]["avx2"] else "portable"),
            file=sys.stderr, flush=True)

    tm, attributed, _ = trace_metrics(read_trace(trace_file))
    m.update(tm)
    traced_s = sum(r["seconds"] for r in traced)
    m["ledger.coverage"] = attributed / traced_s
    if m["ledger.coverage"] < 0.95:
        print("perfbench: LEDGER FLAG %s: attributed spans cover %.1f%% of "
              "run_s (< 95%%)" % (workload, 100 * m["ledger.coverage"]),
              file=sys.stderr, flush=True)
    m["trace.overhead"] = traced_s / untraced_s - 1.0
    return m


def serve_layer_metrics(layers, trace_file, ack_ms, workers):
    """Per-layer metrics of a traced serve workload."""
    m = zeros()
    setups = layers["setup"]
    # Set-up cost of the served circuit mix: per-circuit medians, summed.
    m["circuitgen.build_s"] = sum(median(s["build_s"]) for s in setups)
    m["fault.collapse_s"] = sum(median(s["collapse_s"]) for s in setups)
    m["gatest.construct_s"] = sum(median(s["construct_s"]) for s in setups)
    m["analysis.prove_s"] = sum(layers["prove_s"])
    m.update(replay_metrics(layers["replay"], layers["checkpoint"]))
    m["serve.submit_ack_ms"] = median(ack_ms)

    runs = read_trace(trace_file)
    tm, attributed, run_spans = trace_metrics(runs)
    m.update(tm)
    m["ledger.coverage"] = attributed / run_spans if run_spans else 0.0

    # Job events: queue wait before the first slice, and the gap from one
    # slice's stop to the next slice's run_begin (queue wait + generator
    # rebuild + replay of the committed vectors).
    submit, first_start, slices = {}, [], []
    last_stop, resumed_gap = {}, []
    t_first, t_last = None, None
    with open(trace_file) as f:
        for line in f:
            ev = json.loads(line)
            kind, job, ts = ev.get("type"), ev.get("trace"), ev.get("ts")
            if kind == "job_submit":
                submit[job] = ts
                t_first = ts if t_first is None else min(t_first, ts)
            elif kind == "job_start" and job in submit:
                first_start.append(ts - submit[job])
            elif kind == "slice_stop":
                last_stop[job] = ts
            elif kind == "run_begin" and job in last_stop:
                resumed_gap.append(ts - last_stop.pop(job))
            elif kind == "job_done":
                slices.append(ev["slices"])
                t_last = ts if t_last is None else max(t_last, ts)
    m["serve.queue_wait_s"] = median(first_start)
    m["serve.slice_resume_s"] = median(resumed_gap)
    m["serve.slices_per_job"] = statistics.mean(slices) if slices else 0.0
    m["serve.worker_busy_ratio"] = (run_spans / (workers * (t_last - t_first))
                                    if t_last else 0.0)
    return m

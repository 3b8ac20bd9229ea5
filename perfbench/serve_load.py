"""serve-sliced workload: a gatest_serve daemon under closed-loop TCP load.

The daemon runs with 2 workers, 100 ms slices and a --state-dir journal.
Four client threads share one fixed job list; each client submits a job,
watches it until it ends, fetches its result, then takes the next job.  The
job list rotates through s27, s298, s344 and s386 with seeds derived from
the benchmark seed, and every second job sets prune_proven.  Every served
test set is compared bit for bit with the uninterrupted 1-thread `event`
reference run of the same circuit and seed.

The timings are means over the jobs, or Harrell-Davis percentiles
(metrics.quantile): a job's latency depends on which jobs share the two
workers with it, and the median of 40 such latencies falls between the s298
and s344 clusters, where the one or two latencies a plain percentile picks
change from run to run.
"""

import json
import os
import random
import socket
import subprocess
import sys
import threading
import time

import metrics as M

CIRCUITS = ("s27", "s298", "s344", "s386")
JOBS = 40
TRACED_JOBS = 16
CLIENTS = 4
WORKERS = 2
SLICE_MS = 100
SETUP_REPS = 9


def fnv_digest(vectors):
    """Same digest as perfbench_gen: FNV-1a over 'vector\\n' lines."""
    h = 0xcbf29ce484222325
    for v in vectors:
        for b in (v + "\n").encode():
            h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def job_list(seed, count):
    """`count` jobs rotating through CIRCUITS.  Jobs i and i + count/2 share
    a GA seed (and, with `count` a multiple of 8, a circuit); one of the two
    sets prune_proven, so pruning is checked to leave the served test set
    unchanged."""
    half = count // 2
    rng = random.Random("serve-sliced:%d" % seed)
    seeds = [rng.randrange(1, 2**31) for _ in range(half)]
    return [{"circuit": CIRCUITS[i % 4], "seed": seeds[i % half],
             # Alternate within each round of four; flip for the second half.
             "prune": (i % 4 + i // half) % 2 == 1}
            for i in range(count)]


class Conn:
    """One newline-delimited JSON connection to the daemon."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.file = self.sock.makefile("rb")

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def line(self):
        raw = self.file.readline()
        if not raw:
            raise ConnectionError("daemon closed the connection")
        return raw.decode()

    def call(self, obj):
        self.send(obj)
        return json.loads(self.line())

    def close(self):
        self.file.close()
        self.sock.close()


class Daemon:
    def __init__(self, binary, tmp, index, trace_path=None):
        self.dir = os.path.join(tmp, "daemon%d" % index)
        os.makedirs(self.dir)
        port_file = os.path.join(self.dir, "port")
        cmd = [binary, "--port", "0", "--port-file", port_file,
               "--workers", str(WORKERS), "--slice-ms", str(SLICE_MS),
               "--state-dir", os.path.join(self.dir, "state"), "--quiet"]
        if trace_path:
            cmd += ["--trace-out", trace_path]
        t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL)
        # Ready = the port is published and a status request is answered.
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("gatest_serve exited during start-up")
            if time.monotonic() - t0 > 30:
                raise RuntimeError("gatest_serve not ready after 30s")
            try:
                with open(port_file) as f:
                    text = f.read().strip()
                if text:
                    self.port = int(text)
                    c = Conn(self.port)
                    ok = c.call({"cmd": "status"}).get("ok")
                    c.close()
                    if ok:
                        break
            except (OSError, ValueError):
                pass
            time.sleep(0.001)
        self.ready_s = time.monotonic() - t0

    def peak_rss_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
        raise RuntimeError("no VmHWM for gatest_serve")

    def stop(self):
        if self.proc.poll() is None:
            try:
                c = Conn(self.port)
                c.send({"cmd": "shutdown"})
                c.close()
            except OSError:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def client(port, jobs, next_job, lock, records):
    conn = Conn(port)
    try:
        while True:
            with lock:
                i = next_job[0]
                next_job[0] += 1
            if i >= len(jobs):
                return
            job = jobs[i]
            rec = {"index": i, "ok": False}
            records[i] = rec
            t_submit = time.monotonic()
            ack = conn.call({
                "cmd": "submit", "name": "perfbench-%d" % i,
                "profile": job["circuit"],
                "config": {"seed": job["seed"],
                           "prune_proven": job["prune"]}})
            rec["ack_ms"] = (time.monotonic() - t_submit) * 1e3
            if not ack.get("ok"):
                rec["error"] = ack
                continue
            job_id = ack["id"]
            conn.send({"cmd": "watch", "id": job_id})
            while True:
                line = conn.line()
                if '"watch_end"' in line:
                    break
                if '"type":"run_end"' in line:
                    # Cumulative generator seconds over the job's slices.
                    rec["run_s"] = json.loads(line).get("seconds")
            res = conn.call({"cmd": "result", "id": job_id})
            t_done = time.monotonic()
            rec.update(t_submit=t_submit, t_done=t_done,
                       latency=t_done - t_submit)
            if not res.get("ok"):
                rec["error"] = res
                continue
            rec.update(state=res["job"]["state"],
                       coverage=res["job"]["coverage"],
                       vectors=len(res["vectors"]),
                       digest=fnv_digest(res["vectors"]), ok=True)
    finally:
        conn.close()


def serve_workload(bdir, seed, seconds, trace, tmp, harness):
    del seconds  # a fixed job list keeps faults_detected and test_length exact
    jobs = job_list(seed, TRACED_JOBS if trace else JOBS)
    # Longest references first, so the parallel reference pass ends evenly.
    distinct = {(j["circuit"], j["seed"]): j for j in jobs}.values()
    order = sorted(distinct, key=lambda j: CIRCUITS.index(j["circuit"]),
                   reverse=True)
    out = harness("reference",
                  "--profiles", ",".join(j["circuit"] for j in order),
                  "--seeds", ",".join(str(j["seed"]) for j in order))
    refs = {(r["profile"], r["seed"]): r for r in out["refs"]}
    layers = None
    if trace:
        first = jobs[:4]  # one job per circuit
        layers = harness("layers",
                         "--profiles", ",".join(j["circuit"] for j in first),
                         "--seeds", ",".join(str(j["seed"]) for j in first))

    binary = os.path.join(bdir, "gatest_serve")
    trace_path = os.path.join(tmp, "serve_trace.jsonl") if trace else None
    ready = []
    daemon = None
    try:
        for rep in range(SETUP_REPS):
            last = rep == SETUP_REPS - 1
            daemon = Daemon(binary, tmp, rep, trace_path if last else None)
            ready.append(daemon.ready_s)
            if not last:
                daemon.stop()
        records = [None] * len(jobs)
        lock = threading.Lock()
        next_job = [0]
        threads = [threading.Thread(target=client,
                                    args=(daemon.port, jobs, next_job, lock,
                                          records))
                   for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        peak_kb = daemon.peak_rss_kb()
    finally:
        if daemon is not None:
            daemon.stop()

    failed = 0
    detected, vectors = [], []
    for job, rec in zip(jobs, records):
        ref = refs[(job["circuit"], job["seed"])]
        ok = bool(rec and rec["ok"] and rec["state"] == "done"
                  and rec["digest"] == ref["digest"]
                  and round(rec["coverage"] * ref["faults"]) == ref["detected"])
        if ok:
            detected.append(ref["detected"])
            vectors.append(rec["vectors"])
        else:
            failed += 1
            print("perfbench: job %s failed its check: %s" % (job, rec),
                  flush=True, file=sys.stderr)
    done = [r for r in records if r and "latency" in r]
    latency = [r["latency"] for r in done]
    digests = {"job-%d" % i: (r or {}).get("digest", "none")
               for i, r in enumerate(records)}

    if trace:
        metrics = M.serve_layer_metrics(
            layers, trace_path, [r["ack_ms"] for r in records if r], WORKERS)
        return len(jobs), failed, metrics, digests

    pct, tail_v = M.tail(latency)
    print("perfbench: serve-sliced job_latency_tail_s is p%.2f over %d jobs"
          % (pct, len(latency)), flush=True, file=sys.stderr)
    # Generator seconds per job.  An s27 job can end before its watch
    # starts; it then shows no run_end and counts as 0 (its run takes a few
    # ms).  Dividing by the jobs rather than the run_ends seen keeps that
    # from moving the mean.
    run_total = sum(r.get("run_s") or 0.0 for r in done)
    t_first = min(r["t_submit"] for r in done)
    t_end = max(r["t_done"] for r in done)
    metrics = {
        "run_s": run_total / len(done),
        "setup_s": M.median(ready),
        "faults_detected": sum(detected),
        "test_length": sum(vectors),
        "peak_rss_mb": peak_kb / 1024.0,
        "job_latency_p50_s": M.quantile(latency, 0.5),
        "job_latency_tail_s": tail_v,
        # First submit to last result, drain included.
        "jobs_per_s": len(done) / (t_end - t_first),
    }
    return len(jobs), failed, metrics, digests


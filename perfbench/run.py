#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_figs --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run builds perfbench_job (and the
simulator libraries) from source into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench). Every job runs in its own child process, one at
a time, so a panic costs its job and never the run.

--trace 0 measures the end-to-end metrics with every trace hook off.
--trace 1 is the separate traced run: it records the benchmark's own spans,
attaches the simulator's obs hooks, runs the layer probes and reports the
per-layer metrics. Spans are written to <build>/spans-<workload>-<seed>.json.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. `attempted` counts the units (jobs on paper_figs, ops on serve_*) of
one pass and `failed` those whose answer was wrong or whose process died;
every pass repeats the first, so neither depends on --seconds. `correct` is
false only when the benchmark's own checks fail (a job without a verdict,
virtual-time results that do not repeat across passes, an unbalanced phase
split, a bad probe).
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_figs", "serve_read", "serve_write", "serve_faults")
PROTOCOLS = ("java_ic", "java_pf", "hybrid")
APPS = ("pi", "jacobi", "barnes", "tsp", "asp")
SETUP_REPEATS = 5
# Simulated p99 limit (us) for serve.*_capacity_ops_s; a failed cell misses it.
P99_LIMIT_US = 2000.0
PS_PER_US = 1e6

# name -> (unit, direction, layer). The end-to-end block is printed with
# --trace 0, the per-layer block with --trace 1.
END_TO_END = {
    "wall_s": ("s", "lower", "e2e"),
    "setup_s": ("s", "lower", "e2e"),
    "peak_rss_mb": ("MB", "lower", "e2e"),
    "ok_share": ("share", "higher", "e2e"),
    "ic_wall_s": ("s", "lower", "e2e"),
    "pf_wall_s": ("s", "lower", "e2e"),
    "hybrid_wall_s": ("s", "lower", "e2e"),
    "sim_s": ("s", "lower", "model"),
    "sim_p99_us": ("us", "lower", "model"),
}
PER_LAYER = {}
for _app in APPS:
    PER_LAYER["apps.%s_s" % _app] = ("s", "lower", "apps")
PER_LAYER["apps.serial_ref_s"] = ("s", "lower", "apps")
DSM_COUNTS = {
    "inline_checks": "inline_checks", "page_faults": "page_faults",
    "mprotect_calls": "mprotect_calls", "page_fetches": "page_fetches",
    "fetch_bytes": "page_fetch_bytes", "write_log_entries": "write_log_entries",
    "diff_words": "diff_words", "updates_sent": "updates_sent",
    "update_bytes": "update_bytes", "invalidations": "invalidations",
    "mode_switches": "dsm_mode_switches", "home_migrations": "dsm_home_migrations",
    "migrations_reverted": "dsm_migrations_reverted",
}
for _m in DSM_COUNTS:
    PER_LAYER["dsm." + _m] = ("bytes" if _m.endswith("_bytes") else "count", "lower", "dsm")
PER_LAYER.update({
    "dsm.revert_ratio": ("ratio", "lower", "dsm"),
    "dsm.ic_access_ns": ("ns", "lower", "dsm"),
    "dsm.pf_access_ns": ("ns", "lower", "dsm"),
    "dsm.hybrid_access_ns": ("ns", "lower", "dsm"),
    "dsm.flush_us_per_page": ("us", "lower", "dsm"),
    "dsm.fetch_us": ("us", "lower", "dsm"),
    "dsm.access_share": ("share", "lower", "dsm"),
    "dsm.flush_share": ("share", "lower", "dsm"),
    "dsm.fetch_share": ("share", "lower", "dsm"),
    "sim.events": ("count", "lower", "sim"),
    "sim.context_switches": ("count", "lower", "sim"),
    "sim.event_ns": ("ns", "lower", "sim"),
    "sim.host_ns_per_event": ("ns", "lower", "sim"),
    "cluster.messages": ("count", "lower", "cluster"),
    "cluster.message_bytes": ("bytes", "lower", "cluster"),
    "cluster.retransmits": ("count", "lower", "cluster"),
    "cluster.rpc_timeouts": ("count", "lower", "cluster"),
    "cluster.rpc_us": ("us", "lower", "cluster"),
    "hyperion.monitor_enters": ("count", "lower", "hyperion"),
    "hyperion.monitor_pair_ns": ("ns", "lower", "hyperion"),
    "hyperion.vm_build_ms": ("ms", "lower", "hyperion"),
    "hyperion.monitor_wait_p99_us": ("us", "lower", "hyperion"),
    "ha.host_s": ("s", "lower", "ha"),
    "ha.sys_s": ("s", "lower", "ha"),
    "ha.heartbeats": ("count", "lower", "ha"),
    "ha.promotions": ("count", "lower", "ha"),
    "ha.reroutes": ("count", "lower", "ha"),
    "ha.checkpoint_bytes": ("bytes", "lower", "ha"),
    "ha.fenced_rejects": ("count", "lower", "ha"),
    "ha.quorum_reads": ("count", "lower", "ha"),
    "ha.recovery_p99_us": ("us", "lower", "ha"),
    "obs.overhead_share": ("share", "lower", "obs"),
    "obs.trace_events": ("count", "lower", "obs"),
    "obs.trace_dropped": ("count", "lower", "obs"),
    "serve.ops": ("count", "higher", "serve"),
    "serve.lost_keys": ("count", "lower", "serve"),
    "serve.aborted_cells": ("count", "lower", "serve"),
    "serve.faultwin_ops": ("count", "lower", "serve"),
    "serve.gen_s": ("s", "lower", "serve"),
    "serve.host_us_per_op": ("us", "lower", "serve"),
    "serve.ic_p99_us": ("us", "lower", "serve"),
    "serve.pf_p99_us": ("us", "lower", "serve"),
    "serve.ic_capacity_ops_s": ("1/s", "higher", "serve"),
    "serve.pf_capacity_ops_s": ("1/s", "higher", "serve"),
    "serve.hybrid_capacity_ops_s": ("1/s", "higher", "serve"),
    "model.ic_sim_s": ("s", "lower", "model"),
    "model.pf_sim_s": ("s", "lower", "model"),
    "model.pf_gain_pct": ("%", "higher", "model"),
    "model.compute_share": ("share", "higher", "model"),
    "model.fetch_wait_share": ("share", "lower", "model"),
    "model.monitor_wait_share": ("share", "lower", "model"),
    "model.barrier_share": ("share", "lower", "model"),
    "host.user_s": ("s", "lower", "host"),
    "host.sys_s": ("s", "lower", "host"),
})
HA_COUNTS = {
    "heartbeats": "ha_heartbeats", "promotions": "ha_promotions",
    "reroutes": "ha_reroutes", "checkpoint_bytes": "ha_checkpoint_bytes",
    "fenced_rejects": "ha_fenced_rejects", "quorum_reads": "ha_quorum_reads",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build ---------------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def binary():
    return os.path.join(build_dir(), "perfbench_job")


def build():
    """Configures and builds perfbench_job; returns False on failure."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", out],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(["cmake", "--build", out, "--target", "perfbench_job", "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0 and os.path.exists(binary())


# --- child processes ---------------------------------------------------------------

class Child:
    """One finished child process: host wall, rusage and its JSON lines."""

    def __init__(self, args):
        tmp = os.path.join(build_dir(), "child")
        os.makedirs(tmp, exist_ok=True)
        out_path, err_path = os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            self.start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - self.start
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.rc = proc.returncode
        self.user_s, self.sys_s = usage.ru_utime, usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(out_path) as f:
            self.lines = [json.loads(l) for l in f if l.startswith("{")]
        with open(err_path) as f:
            self.stderr = f.read().strip()

    def last(self):
        return self.lines[-1] if self.rc == 0 and self.lines else None


def job_args(workload, seed, mode, *extra):
    return [binary(), mode, "--workload", workload, "--seed", str(seed)] + list(extra)


def list_jobs(workload, seed):
    return Child(job_args(workload, seed, "list")).lines


def run_job(workload, seed, job, expect, *flags):
    """Runs one job; a dead process or a wrong answer fails all/some units."""
    args = job_args(workload, seed, "job", "--index", str(job["index"]),
                    "--expect", expect, *flags)
    child = Child(args)
    res = child.last()
    if res is None:
        reason = child.stderr.splitlines()[-1] if child.stderr else "exit %d" % child.rc
        res = {"id": job["id"], "ok": False, "units": job["units"],
               "failed_units": job["units"], "aborted": True, "reason": reason}
    res["wall"], res["rss_mb"] = child.wall, child.rss_mb
    res["user_s"], res["sys_s"] = child.user_s, child.sys_s
    res["start"], res["args"] = child.start, args
    return res


def setup(workload, seed):
    """Inputs, serial references and one untimed warm-up job, timed."""
    t0 = time.perf_counter()
    jobs = list_jobs(workload, seed)
    ref = Child(job_args(workload, seed, "ref")).last()
    warm = jobs[len(jobs) // 2]
    run_job(workload, seed, warm, ref["expect"][warm["index"]])
    return jobs, ref, time.perf_counter() - t0


# --- histogram pooling (common/histogram.hpp's value_at_quantile) -------------------------

def pooled_quantile(hists, q):
    hists = [h for h in hists if h and h["count"]]
    if not hists:
        return 0.0
    count = sum(h["count"] for h in hists)
    lo_all, hi_all = min(h["min"] for h in hists), max(h["max"] for h in hists)
    buckets = {}
    for h in hists:
        for i, n in h["buckets"]:
            buckets[i] = buckets.get(i, 0) + n
    rank = max(1, math.ceil(q * count))
    seen = 0
    for i in sorted(buckets):
        n = buckets[i]
        if seen + n < rank:
            seen += n
            continue
        lo = 0 if i <= 0 else 1 << (i - 1)
        hi = 0 if i <= 0 else ((1 << i) - 1 if i < 64 else (1 << 64) - 1)
        off = min(int((hi - lo) * ((rank - seen) / n)), hi - lo)
        return float(min(max(lo + off, lo_all), hi_all))
    return float(hi_all)


# --- measurement ------------------------------------------------------------------

def run_passes(workload, seed, jobs, ref, seconds, flags_list):
    """Whole passes until the next would overrun `seconds` (at least one).
    Each pass is a list of flag sets run job by job, alternating their order."""
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        t0 = time.perf_counter()
        group = [[] for _ in flags_list]
        for k, job in enumerate(jobs):
            order = range(len(flags_list))
            if (k + len(passes)) % 2:
                order = reversed(order)
            for g in order:
                group[g].append(run_job(workload, seed, job, ref["expect"][job["index"]],
                                        *flags_list[g]))
        passes.append(group)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return passes


def fingerprint(res):
    """The virtual-time outcome of a job, which must repeat exactly."""
    keys = ("ok", "failed_units", "value", "sim_s", "counters", "hists", "aborted")
    return json.dumps({k: res.get(k) for k in keys}, sort_keys=True)


def report_failures(workload, seed, jobs, results):
    by_index = {j["id"]: j for j in jobs}
    for res in results:
        if res["failed_units"] == 0:
            continue
        job = by_index[res["id"]]
        print("FAILED %s %s: %d/%d units: %s" % (workload, res["id"], res["failed_units"],
                                                res["units"], res.get("reason", "")))
        rel = os.path.relpath(res["args"][0], ROOT)
        print("  repro: %s" % " ".join([rel] + res["args"][1:]))
        if job.get("repro"):
            print("  repro: build/%s" % job["repro"])


def unit_counts(results):
    """(attempted, failed) units of one pass. Every pass repeats the first
    exactly (checked), so counting one pass makes both a function of the
    seed alone, not of how many passes fit in --seconds."""
    return (sum(r["units"] for r in results), sum(r["failed_units"] for r in results))


def cell_key(job):
    return job["id"].rsplit("/", 1)[0]


def e2e_metrics(workload, jobs, passes, setups):
    """Host times are sums over jobs of each job's fastest wall across
    passes. Every job is deterministic work; on a shared host interference
    only ever adds time, and it comes in bursts longer than a pass, so the
    per-job minimum is the steady estimate of the job's cost where a median
    is not."""
    first = [p[0] for p in passes]
    walls = [min(p[k]["wall"] for p in first) for k in range(len(jobs))]
    m = {"wall_s": sum(walls),
         "setup_s": statistics.median(setups),
         "peak_rss_mb": max(r["rss_mb"] for p in first for r in p)}
    attempted, failed = unit_counts(first[0])
    m["ok_share"] = (attempted - failed) / attempted
    for pr in PROTOCOLS:
        m[pr.replace("java_", "") + "_wall_s"] = sum(
            w for w, j in zip(walls, jobs) if j["protocol"] == pr)
    proto = {j["id"]: j["protocol"] for j in jobs}
    res0 = first[0]
    hybrid = [r for r in res0 if proto[r["id"]] == "hybrid"]
    m["sim_s"] = sum(r.get("sim_s", 0.0) for r in hybrid)
    m["sim_p99_us"] = sim_p99_us(workload, jobs, res0, "hybrid")
    return m, attempted, failed


def lowest_rate_results(jobs, results, protocol):
    rates = [j["rate"] for j in jobs if "rate" in j]
    low = min(rates) if rates else None
    by_id = {j["id"]: j for j in jobs}
    return [r for r in results
            if by_id[r["id"]]["protocol"] == protocol and by_id[r["id"]].get("rate") == low]


def sim_p99_us(workload, jobs, results, protocol):
    """Simulated p99, pooled over cells: op latency at the lowest ladder rate
    on serve_*; monitor-acquire wait on paper_figs, whose batch jobs have no
    ops (their page-fetch p99 is one fixed transfer time for every seed)."""
    if workload == "paper_figs":
        by_id = {j["id"]: j for j in jobs}
        hists = [r.get("hists", {}).get("monitor_wait") for r in results
                 if by_id[r["id"]]["protocol"] == protocol]
    else:
        hists = [r.get("hists", {}).get("op") for r in lowest_rate_results(jobs, results, protocol)]
    return pooled_quantile(hists, 0.99) / PS_PER_US


def capacity(jobs, results, protocol):
    """Highest ladder rate (aggregate offered ops/s) whose pooled simulated
    p99 meets P99_LIMIT_US with no failed cell; 0 when none does."""
    by_id = {j["id"]: j for j in jobs}
    best = 0.0
    rates = sorted({j["rate"] for j in jobs if "rate" in j})
    for rate in rates:
        cells = [r for r in results if by_id[r["id"]]["protocol"] == protocol
                 and by_id[r["id"]].get("rate") == rate]
        if not cells or any(r["failed_units"] for r in cells):
            break
        if pooled_quantile([r["hists"]["op"] for r in cells], 0.99) / PS_PER_US > P99_LIMIT_US:
            break
        best = rate * by_id[cells[0]["id"]]["clients"]
    return best


def counter_sum(results, name):
    return sum(r["counters"].get(name, 0) for r in results if "counters" in r)


def layer_metrics(workload, jobs, ref, probe, passes, twins):
    """Per-layer metrics from the traced run's pass pairs (`plain`: spans
    only; `traced`: spans plus the obs hooks) and, on serve_faults, the
    fault-free twins of the fault cells. Layer host times come from the
    first plain pass; the obs overhead is the median over pairs."""
    plain, traced = passes[0]
    by_id = {j["id"]: j for j in jobs}
    wall = sum(r["wall"] for r in plain)
    call = {r["id"]: span_total(r, "call") for r in plain}
    m = {}
    for app in APPS:
        m["apps.%s_s" % app] = sum(call[r["id"]] for r in plain if by_id[r["id"]]["app"] == app)
    m["apps.serial_ref_s"] = ref["ref_s"]
    for name, counter in DSM_COUNTS.items():
        m["dsm." + name] = counter_sum(plain, counter)
    migrations = m["dsm.home_migrations"]
    m["dsm.revert_ratio"] = m["dsm.migrations_reverted"] / migrations if migrations else 0.0
    for key in ("dsm.ic_access_ns", "dsm.pf_access_ns", "dsm.hybrid_access_ns",
                "dsm.flush_us_per_page", "dsm.fetch_us", "sim.event_ns", "cluster.rpc_us",
                "hyperion.monitor_pair_ns", "hyperion.vm_build_ms"):
        m[key] = probe.get(key, 0.0)
    # Computed shares: work count x probed host cost per unit / pass wall.
    # Accesses are counted by java_ic's inline checks, one per get/put, so
    # every protocol's job borrows the count of its java_ic sibling.
    checks = {cell_key(by_id[r["id"]]): r["counters"]["inline_checks"] for r in plain
              if by_id[r["id"]]["protocol"] == "java_ic" and "counters" in r}
    access_ns = 0.0
    for r in plain:
        pr = by_id[r["id"]]["protocol"].replace("java_", "")
        access_ns += checks.get(cell_key(by_id[r["id"]]), 0) * m["dsm.%s_access_ns" % pr]
    m["dsm.access_share"] = access_ns * 1e-9 / wall
    m["dsm.flush_share"] = m["dsm.updates_sent"] * m["dsm.flush_us_per_page"] * 1e-6 / wall
    m["dsm.fetch_share"] = m["dsm.page_fetches"] * m["dsm.fetch_us"] * 1e-6 / wall
    m["sim.events"] = counter_sum(plain, "events")
    m["sim.context_switches"] = counter_sum(plain, "context_switches")
    m["sim.host_ns_per_event"] = sum(call.values()) * 1e9 / max(1, m["sim.events"])
    for name in ("messages", "message_bytes", "retransmits", "rpc_timeouts"):
        m["cluster." + name] = counter_sum(plain, name)
    m["hyperion.monitor_enters"] = counter_sum(plain, "monitor_enters")
    m["hyperion.monitor_wait_p99_us"] = pooled_quantile(
        [r.get("hists", {}).get("monitor_wait") for r in plain], 0.99) / PS_PER_US
    fault_cells = [r for r in plain if by_id[r["id"]]["profile"] in ("crash", "partition", "hot")]
    m["ha.host_s"] = sum(r["wall"] for r in fault_cells) - sum(r["wall"] for r in twins)
    m["ha.sys_s"] = sum(r["sys_s"] for r in fault_cells) - sum(r["sys_s"] for r in twins)
    for name, counter in HA_COUNTS.items():
        m["ha." + name] = counter_sum(plain, counter)
    m["ha.recovery_p99_us"] = pooled_quantile(
        [r.get("hists", {}).get("recovery") for r in plain], 0.99) / PS_PER_US
    m["obs.overhead_share"] = statistics.median(
        (sum(r["wall"] for r in t) - sum(r["wall"] for r in p)) / sum(r["wall"] for r in p)
        for p, t in passes)
    m["obs.trace_events"] = sum(r.get("trace_events", 0) for r in traced)
    m["obs.trace_dropped"] = sum(r.get("trace_dropped", 0) for r in traced)
    serve = [r for r in plain if by_id[r["id"]]["app"] == "serve"]
    m["serve.ops"] = sum(r.get("ops", 0) for r in serve)
    m["serve.lost_keys"] = sum(r.get("lost_keys", 0) for r in serve)
    m["serve.aborted_cells"] = sum(1 for r in serve if r.get("aborted"))
    m["serve.faultwin_ops"] = sum(r.get("faultwin_ops", 0) for r in serve)
    m["serve.gen_s"] = ref["gen_s"]
    m["serve.host_us_per_op"] = (sum(r["wall"] for r in serve) * 1e6 / m["serve.ops"]
                                 if m["serve.ops"] else 0.0)
    for pr in PROTOCOLS:
        short = pr.replace("java_", "")
        if pr != "hybrid":
            m["serve.%s_p99_us" % short] = (sim_p99_us(workload, jobs, plain, pr)
                                           if serve else 0.0)
        m["serve.%s_capacity_ops_s" % short] = capacity(jobs, plain, pr) if serve else 0.0
    sims = {pr: sum(r.get("sim_s", 0.0) for r in plain if by_id[r["id"]]["protocol"] == pr)
            for pr in PROTOCOLS}
    m["model.ic_sim_s"], m["model.pf_sim_s"] = sims["java_ic"], sims["java_pf"]
    m["model.pf_gain_pct"] = (100.0 * (sims["java_ic"] - sims["java_pf"]) / sims["java_ic"]
                              if sims["java_ic"] else 0.0)
    phases = [sum(r["phases_ps"][p] for r in traced if "phases_ps" in r) for p in range(4)]
    total = sum(phases)
    for p, name in enumerate(("compute", "fetch_wait", "monitor_wait", "barrier")):
        m["model.%s_share" % name] = phases[p] / total if total else 0.0
    m["host.user_s"] = sum(r["user_s"] for r in plain)
    m["host.sys_s"] = sum(r["sys_s"] for r in plain)
    return m


def span_total(res, name):
    return sum((s["end_us"] - s["start_us"]) * 1e-6 for s in res.get("spans", [])
               if s["name"] == name)


def phases_balanced(results):
    """Each traced job's phase shares are finite, non-negative and sum to 1."""
    for r in results:
        if r.get("aborted"):
            continue
        ph = r.get("phases_ps")
        total = sum(ph) if ph else 0
        if not ph or total <= 0 or any(p < 0 for p in ph):
            return False
        if abs(sum(p / total for p in ph) - 1.0) > 1e-9:
            return False
    return True


# --- spans ---------------------------------------------------------------------------

class SpanLog:
    """The benchmark's own spans, kept in memory and written at the end."""

    def __init__(self, t0):
        self.t0, self.spans = t0, []

    def add(self, name, start, end, parent=None, **attrs):
        self.spans.append(dict(id=len(self.spans), parent=parent, name=name,
                               start_us=(start - self.t0) * 1e6,
                               end_us=(end - self.t0) * 1e6, **attrs))
        return len(self.spans) - 1

    def add_child_spans(self, parent, start, child_spans):
        # Child spans are relative to the child's own first clock read, which
        # follows the parent's spawn by the exec latency; re-based on spawn.
        for s in child_spans:
            self.add(s["name"], start + s["start_us"] * 1e-6, start + s["end_us"] * 1e-6, parent)

    def add_job(self, parent, res, phase):
        sid = self.add("job", res["start"], res["start"] + res["wall"], parent,
                       job=res["id"], phase=phase)
        self.add_child_spans(sid, res["start"], res.get("spans", []))

    def self_times(self):
        covered = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end_us"] - s["start_us"]
        out = {}
        for s in self.spans:
            own = s["end_us"] - s["start_us"] - covered.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own * 1e-6
        return out

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "self_time_s": self.self_times()}, f)


# --- main ----------------------------------------------------------------------------

def print_metrics(metrics, table):
    for name in table:
        unit, better, layer = table[name]
        print("%-32s %18.9g %-6s %-6s %s" % (name, metrics[name], unit, better, layer))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not build():
        log("perfbench: build failed")
        return 1
    t_start = time.perf_counter()
    w, seed = args.workload, args.seed
    correct = True

    if args.trace == 0:
        setups, refs = [], []
        for _ in range(SETUP_REPEATS):
            jobs, ref, took = setup(w, seed)
            setups.append(took)
            refs.append(ref["expect"])
        correct &= all(r == refs[0] for r in refs)
        passes = run_passes(w, seed, jobs, ref, args.seconds, [()])
        first = [p[0] for p in passes]
        for k in range(len(jobs)):
            correct &= all(fingerprint(p[k]) == fingerprint(first[0][k]) for p in first)
        report_failures(w, seed, jobs, first[0])
        metrics, attempted, failed = e2e_metrics(w, jobs, passes, setups)
        table = END_TO_END
        log("perfbench: %d passes, %d jobs each" % (len(passes), len(jobs)))
    else:
        spans = SpanLog(t_start)
        root = spans.add("workload", t_start, t_start, None, workload=w, seed=seed)
        t0 = time.perf_counter()
        jobs, ref, _ = setup(w, seed)
        spans.add("setup", t0, time.perf_counter(), root)
        probe_child = Child(job_args(w, seed, "probe", "--spans"))
        probe = probe_child.last()
        correct &= probe is not None and all(
            math.isfinite(v) and v > 0 for k, v in probe.items() if k != "spans")
        pid = spans.add("probe", probe_child.start, probe_child.start + probe_child.wall, root)
        spans.add_child_spans(pid, probe_child.start, probe.get("spans", []) if probe else [])
        fault_jobs = [j for j in jobs if j["profile"] in ("crash", "partition", "hot")]
        twins = [run_job(w, seed, j, ref["expect"][j["index"]], "--selfref", "--spans",
                         "--nofault") for j in fault_jobs]
        for r in twins:
            spans.add_job(root, r, "nofault")
        remaining = args.seconds - (time.perf_counter() - t_start)
        passes = run_passes(w, seed, jobs, ref, remaining,
                            [("--selfref", "--spans"), ("--selfref", "--spans", "--obs")])
        for plain, traced in passes:
            for r in plain:
                spans.add_job(root, r, "plain")
            for r in traced:
                spans.add_job(root, r, "traced")
            correct &= phases_balanced(traced)
            for a, b in zip(plain, traced):
                correct &= fingerprint(a) == fingerprint(b)
        report_failures(w, seed, jobs, passes[0][0])
        metrics = layer_metrics(w, jobs, ref, probe or {}, passes, twins)
        attempted, failed = unit_counts(passes[0][0])
        spans.spans[root]["end_us"] = (time.perf_counter() - t_start) * 1e6
        path = os.path.join(build_dir(), "spans-%s-%d.json" % (w, seed))
        spans.write(path)
        log("perfbench: spans written to %s" % os.path.relpath(path, ROOT))
        table = PER_LAYER

    print_metrics(metrics, table)
    correct &= all(isinstance(metrics[n], (int, float)) and math.isfinite(metrics[n])
                   for n in table)
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {n: {"value": metrics[n], "unit": table[n][0]} for n in table}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

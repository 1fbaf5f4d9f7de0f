#!/usr/bin/env python3
"""NashDB end-to-end benchmark: builds nashdb_perfbench from source, runs
one workload for a fixed time, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload stream_serve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones (untraced repetitions, metrics registry
off); with --trace 1 they are the per-layer ones, from traced repetitions
interleaved with untraced ones (the pair gives trace.overhead). The exit
code is nonzero, and "correct" false, when any correctness check fails.
--self-test runs every workload at reduced size through the same checks.
See perfbench/README.md for the workloads, metrics and findings.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = os.cpu_count() or 1
REP_TIMEOUT_S = 170
MAX_REPS = 40
# Untraced repetitions report setup_s (and sharded_plane's build stall) as
# the median of this many setups of the workload in one process.
SETUPS = 9

# name -> generator size: full, and reduced for --self-test. The other
# generator parameters are constants of nashdb_perfbench (README.md).
WORKLOADS = {
    "elastic_control": {"full": {"scale": 0.25}, "reduced": {"scale": 0.02}},
    "stream_serve": {"full": {"queries": 200000},
                     "reduced": {"queries": 20000}},
    "chaos_serve": {"full": {"queries": 40000}, "reduced": {"queries": 9000}},
    "sharded_plane": {"full": {"queries": 30000},
                      "reduced": {"queries": 4000}},
}

# (name, unit, better)
END_TO_END = [
    ("queries_per_s", "queries/s", "higher"),
    ("reconfig_stall_ms_per_round", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_cost_cents", "cents", "lower"),
    ("completed_query_share", "fraction", "higher"),
]
# Simulated outcomes whose spread across workload seeds exceeds any bound
# the benchmark could set (README.md "Steadiness"): reported by --trace 1
# runs, from the same untraced repetitions.
SIM_OUTCOMES = [
    ("sim.latency_p50_s", "sim_s", "lower"),
    ("sim.latency_tail_s", "sim_s", "lower"),
    ("sim.transfer_tuples", "tuples", "lower"),
]

ROUND_BOUNDARIES = ["engine.build_config", "frag.refragment_ms",
                    "replication.decide_pack_ms", "replication.nash_audit",
                    "transition.plan", "engine.index_build", "engine.validate",
                    "cluster.apply_residual_ms"]
CALL_BOUNDARIES = ["workload.next", "value.observe", "routing.route_batch",
                   "routing.route_scalar"]
REGISTRY_BOUNDARIES = ["transition.graph_build_ms", "transition.solve_ms"]

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = []
for _b in CALL_BOUNDARIES:
    PER_LAYER += [(_b + ".calls", "count"), (_b + ".busy_s", "s"),
                  (_b + ".share", "fraction"), (_b + ".p50_ns", "ns")]
for _b in ROUND_BOUNDARIES:
    PER_LAYER += [(_b + ".calls", "count"), (_b + ".busy_s", "s"),
                  (_b + ".share", "fraction"), (_b + ".p50_ms", "ms"),
                  (_b + ".tail_ms", "ms")]
for _b in REGISTRY_BOUNDARIES:
    PER_LAYER += [(_b + ".calls", "count"), (_b + ".busy_s", "s"),
                  (_b + ".share", "fraction")]
PER_LAYER += [
    ("routing.route_batch.scans", "count"),
    ("routing.route_batch.ns_per_scan", "ns"),
    ("routing.route_scalar.failed_share", "fraction"),
    ("replication.nash_audit.stall_gap_share", "fraction"),
    ("replication.nash_violations", "count"),
    ("replication.nodes_mean", "nodes"),
    ("replication.placed_replicas_mean", "replicas"),
    ("transition.planned_transfer_tuples", "tuples"),
    ("cluster.queue_wait_s_mean", "sim_s"),
    ("cluster.transfer_window_s_mean", "sim_s"),
    ("faults.scan_retry_rate", "retries/query"),
    ("faults.emergency_repairs", "count"),
    ("overload.shed_rate", "fraction"),
    ("sharded.route_busy_max_s", "s"),
    ("sharded.route_busy_min_s", "s"),
    ("sharded.max_shard_scan_share", "fraction"),
    ("engine.unexplained_share", "fraction"),
    ("trace.overhead", "ratio"),
] + [(n, u) for n, u, _ in SIM_OUTCOMES]

TAIL_LADDER = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def build():
    """Configures (once) and builds nashdb_perfbench; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
               "-DNASHDB_VALIDATE=OFF"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", str(NPROC)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    return os.path.join(out, "nashdb_perfbench")


# ------------------------------------------------------------ repetitions

def run_rep(binary, workload, seed, size, traced):
    flags = dict(WORKLOADS[workload][size])
    if traced and workload == "sharded_plane":
        flags["check-partitions"] = 1
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--traced=%d" % int(traced),
           "--setups=%d" % (1 if traced else SETUPS)]
    cmd += ["--%s=%s" % (k, v) for k, v in flags.items()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s repetition exceeded %ds" % (workload,
                                                         REP_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("%s repetition exited %d: %s" %
                         (workload, proc.returncode, proc.stderr.strip()))
    rep = json.loads(proc.stdout)
    b = rep["build"]
    if b["validate"] or not b["ndebug"] or b["build_type"] == "Debug":
        raise BenchError("refusing to time a %s build (validate=%s ndebug=%s)"
                         % (b["build_type"], b["validate"], b["ndebug"]))
    return rep


def repetitions(binary, workload, seed, seconds, size, trace, min_reps=1):
    """Untraced repetitions (and, with trace, a traced one after each) until
    the next one would overrun `seconds`; at least `min_reps` of each.
    One elastic_control repetition takes most of a run, so its --trace 0
    runs hold one repetition and compare no digests across repetitions."""
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        untraced.append(run_rep(binary, workload, seed, size, False))
        if trace:
            traced.append(run_rep(binary, workload, seed, size, True))
        took = time.monotonic() - t
        if len(untraced) >= MAX_REPS:
            break
        if len(untraced) < min_reps:
            continue
        if time.monotonic() + took > start + seconds:
            break
    return untraced, traced


# ---------------------------------------------------------------- metrics

def percentile(samples, p):
    """Nearest-rank percentile of a list (0 when empty)."""
    if not samples:
        return 0.0
    s = sorted(samples)
    k = max(0, min(len(s) - 1, int(-(-p * len(s) // 100)) - 1))
    return s[k]


def tail_percentile(n):
    """Highest ladder percentile with at least ten samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def latency_key(p):
    return "%g" % p


def end_to_end(reps):
    med = statistics.median
    first = reps[0]
    tail_p = tail_percentile(first["completed"])
    values = {
        "queries_per_s": med(r["total_queries"] / r["wall_s"] for r in reps),
        "reconfig_stall_ms_per_round":
            med(1e3 * r["stall_s"] / r["rounds"] for r in reps),
        "setup_s": med(r["setup_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "sim_cost_cents": first["cost_cents"],
        "completed_query_share": first["completed"] / first["total_queries"],
        "sim.latency_p50_s": first["latency_s"]["50"],
        "sim.latency_tail_s": first["latency_s"][latency_key(tail_p)],
        "sim.transfer_tuples": float(first["transferred_tuples"]),
    }
    info = {"tail_percentile": tail_p,
            "tail_samples_beyond": first["completed"] * (1 - tail_p / 100.0)}
    return values, info


def registry_hist(reg, name):
    h = (reg or {}).get("histograms", {}).get(name)
    return h or {"count": 0, "sum": 0.0}


def per_layer(traced_rep, untraced_reps):
    """Per-layer metrics of one traced repetition."""
    r = traced_rep
    reg = r.get("registry") or {}
    layers = r["layers"]
    serial = r["workload"] != "sharded_plane"
    total = r["total_s"]
    out = {}

    def put_call(name, b):
        out[name + ".calls"] = b["calls"]
        out[name + ".busy_s"] = b["busy_s"]
        out[name + ".share"] = b["busy_s"] / total
        out[name + ".p50_ns"] = b.get("p50_ns", 0.0)

    def put_rounds(name, samples_ms):
        samples_ms = list(samples_ms)
        busy = sum(samples_ms) / 1e3
        out[name + ".calls"] = len(samples_ms)
        out[name + ".busy_s"] = busy
        out[name + ".share"] = busy / total
        out[name + ".p50_ms"] = percentile(samples_ms, 50)
        out[name + ".tail_ms"] = percentile(samples_ms,
                                            tail_percentile(len(samples_ms)))

    if not serial:
        # The shards' routers all run the batched path: their sum is the
        # plane's routing work (busy time summed over parallel shards).
        shards = layers["shards"]
        batch = layers["routing.route_batch"]
        for key in ("calls", "items", "failed", "busy_s"):
            batch[key] = sum(s[key] for s in shards)
        batch["p50_ns"] = statistics.median(s["p50_ns"] for s in shards)
    for name in CALL_BOUNDARIES:
        put_call(name, layers[name])
    traces = reg.get("reconfigurations", [])
    build_ms = layers["engine.build_config"]["round_ms"]
    put_rounds("engine.build_config", build_ms)
    put_rounds("frag.refragment_ms",
               (t["fragmentation"]["wall_ms"] for t in traces))
    put_rounds("replication.decide_pack_ms",
               (t["replication"]["wall_ms"] for t in traces))
    for name in ["replication.nash_audit", "transition.plan",
                 "engine.index_build", "engine.validate"]:
        put_rounds(name, layers[name]["round_ms"])
    # Round wall (sim.reconfig_round_ms) minus the build and the plan: the
    # simulator's ApplyConfig plus the round's bookkeeping.
    plan_ms = [t["transition"]["plan_ms"] for t in traces]
    residual = [t["total_ms"] - b - p
                for t, b, p in zip(traces, build_ms, plan_ms)]
    put_rounds("cluster.apply_residual_ms", residual)
    for name in REGISTRY_BOUNDARIES:
        h = registry_hist(reg, name)
        out[name + ".calls"] = h["count"]
        out[name + ".busy_s"] = h["sum"] / 1e3
        out[name + ".share"] = h["sum"] / 1e3 / total

    batch = layers["routing.route_batch"]
    scalar = layers["routing.route_scalar"]
    out["routing.route_batch.scans"] = batch["items"]
    out["routing.route_batch.ns_per_scan"] = (
        1e9 * batch["busy_s"] / batch["items"] if batch["items"] else 0.0)
    out["routing.route_scalar.failed_share"] = (
        scalar["failed"] / scalar["calls"] if scalar["calls"] else 0.0)

    # Does the registry-gated Definition 6.1 audit account for the extra
    # stall of traced runs? 1.0 = exactly; the gap is traced minus untraced.
    gap = r["stall_s"] - statistics.median(u["stall_s"] for u in untraced_reps)
    audit = out["replication.nash_audit.busy_s"]
    out["replication.nash_audit.stall_gap_share"] = (
        audit / gap if serial and gap > 0 else 0.0)
    replay = r["replay"]
    out["replication.nash_violations"] = replay["nash_violations"]
    configs = max(1, replay["configs"])
    out["replication.nodes_mean"] = replay["nodes_sum"] / configs
    out["replication.placed_replicas_mean"] = (
        replay["placed_replicas_sum"] / configs)
    out["transition.planned_transfer_tuples"] = (
        replay["planned_transfer_tuples"])
    out["cluster.queue_wait_s_mean"] = _mean(registry_hist(
        reg, "routing.queue_wait_s"))
    out["cluster.transfer_window_s_mean"] = _mean(registry_hist(
        reg, "sim.transfer_window_s"))
    out["faults.scan_retry_rate"] = r["scan_retries"] / r["total_queries"]
    out["faults.emergency_repairs"] = r["emergency_repairs"]
    out["overload.shed_rate"] = r["shed"] / r["total_queries"]

    shards = layers["shards"]
    busy = [s["busy_s"] for s in shards]
    scans = [s["items"] for s in shards]
    out["sharded.route_busy_max_s"] = max(busy) if busy else 0.0
    out["sharded.route_busy_min_s"] = min(busy) if busy else 0.0
    out["sharded.max_shard_scan_share"] = (
        max(scans) / sum(scans) if sum(scans) else 0.0)

    if serial:
        # Top-level, non-overlapping boundaries of the serial driver loop.
        top = ["workload.next", "value.observe", "engine.build_config",
               "cluster.apply_residual_ms", "routing.route_batch",
               "routing.route_scalar"]
        explained = sum(out[n + ".busy_s"] for n in top)
        explained += sum(plan_ms) / 1e3
    else:
        # Setup (observe + build) then the shards' critical path: the
        # busiest shard's routing.
        explained = (out["value.observe.busy_s"] +
                     out["engine.build_config.busy_s"] +
                     out["sharded.route_busy_max_s"])
    out["engine.unexplained_share"] = 1.0 - explained / total
    untraced_wall = statistics.median(u["wall_s"] for u in untraced_reps)
    out["trace.overhead"] = r["wall_s"] / untraced_wall
    return out


def _mean(h):
    return h["sum"] / h["count"] if h["count"] else 0.0


# ----------------------------------------------------------------- checks

def check(workload, untraced, traced):
    """Returns the failed checks (empty when everything holds)."""
    failures = []
    for rep in untraced + traced:
        kind = "traced" if rep["traced"] else "untraced"
        for c in rep["checks"]:
            if not c["ok"]:
                failures.append("%s %s: %s (%s)" % (workload, kind, c["name"],
                                                    c["detail"]))
    digests = {rep["digest"] for rep in untraced + traced}
    if len(digests) != 1:
        failures.append("%s: simulated outcomes differ across repetitions or "
                        "between traced and untraced runs: %s"
                        % (workload, sorted(digests)))
    for rep in traced:
        reg = rep.get("registry") or {}
        counted = reg.get("counters", {}).get(
            "transition.planned_transfer_tuples")
        replayed = rep["replay"]["planned_transfer_tuples"]
        # Fault runs plan around dead machines, which the replay does not
        # see; the sharded plane keeps no registry.
        if workload in ("elastic_control", "stream_serve") and \
                counted != replayed:
            failures.append("%s: replayed planned transfer %s != registry %s"
                            % (workload, replayed, counted))
    return failures


# ----------------------------------------------------------------- report

def host_record(rep):
    sha = "unknown (not a git checkout)"
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            sha = p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    b = rep["build"]
    return {"nproc": NPROC, "compiler": "g++ " + b["compiler"],
            "build_type": b["build_type"], "nashdb_validate": b["validate"],
            "git_sha": sha, "reconfig_threads": b["reconfig_threads"],
            "shards": b["shards"], "fault_spec": b["fault_spec"]}


def run_workload(binary, workload, seed, seconds, trace, size="full",
                 min_reps=1):
    untraced, traced = repetitions(binary, workload, seed, seconds, size,
                                   trace, min_reps)
    failures = check(workload, untraced, traced)
    print("host: " + json.dumps(host_record(untraced[0])))
    print("workload %s seed %d: %d untraced, %d traced repetitions, "
          "%d queries each" % (workload, seed, len(untraced), len(traced),
                               untraced[0]["total_queries"]))
    if len(untraced) + len(traced) < 2:
        print("  one repetition: the outcome digest is compared with none")
    e2e, info = end_to_end(untraced)
    print("  tail = p%g (%.0f completed queries beyond it)"
          % (info["tail_percentile"], info["tail_samples_beyond"]))
    for name, unit, better in END_TO_END + SIM_OUTCOMES:
        print("  %-30s %16.6g %-10s (%s is better)"
              % (name, e2e[name], unit, better))
    layer = {}
    if trace:
        layers = [per_layer(t, untraced) for t in traced]
        for name, _ in PER_LAYER:
            if name in e2e:
                layer[name] = e2e[name]
            else:
                layer[name] = statistics.median(l[name] for l in layers)
        print("  layer shares of the traced run (busy / wall):")
        for name, _ in PER_LAYER:
            if name.endswith(".share"):
                print("    %-40s %8.4f" % (name, layer[name]))
        for name in ["engine.unexplained_share", "trace.overhead",
                     "replication.nash_audit.stall_gap_share"]:
            print("    %-40s %8.4f" % (name, layer[name]))
    for f in failures:
        print("CHECK FAILED: " + f)
    attempted = sum(r["total_queries"] for r in untraced + traced)
    return e2e, layer, failures, attempted


def self_test(binary):
    """Every workload at reduced size, traced and untraced, every check;
    two repetitions of each, so the digests are compared across both."""
    ok = True
    for workload in WORKLOADS:
        _, layer, failures, _ = run_workload(binary, workload, 7, 0, True,
                                             size="reduced", min_reps=2)
        missing = [n for n, _ in PER_LAYER if n not in layer]
        if failures or missing:
            ok = False
            log("self-test %s failed: %s %s" % (workload, failures, missing))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        binary = build()
        if args.self_test:
            return self_test(binary)
        e2e, layer, failures, attempted = run_workload(
            binary, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    if args.trace:
        metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u, _ in END_TO_END}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": 0, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

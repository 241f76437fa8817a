#!/usr/bin/env python3
"""Benchmark of the simulator program: host cost per simulated operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the harness (perfbench/harness)
from source into .bench_build with dune, runs one seeded workload and
prints, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones (host wall time, CPU time, set-up time, heap and check time
of the running process); with --trace 1 the per-layer ones from a separate
traced run. Host times are scaled to a nominal host by the fixed reference
work the harness times beside them (stats.host_scale), because the speed
of a shared machine drifts by tens of percent between runs, and the least
of the executions of the seed counts (stats.slice_minimum). A run whose
correctness check finds a violation, or whose
simulated results differ from an earlier run of the same seed on the same
source, exits with status 1 and prints no result.

WORKLOADS.md describes the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ["write-heavy", "read-mostly", "txn-bank", "nemesis"]
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "harness", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """Digest of every source the harness is built from: the model outputs
    of a seed are only required to repeat on identical sources."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "dune-project")]
    for top in ("lib", os.path.join("perfbench", "harness")):
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("not a checkout of the repository: dune-project or lib/ is missing")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/harness/perfbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        fail("build failed")


def run_harness(args, raw_path, spans_path):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("harness exited with status %d" % done.returncode)
    with open(raw_path) as f:
        return json.load(f)


def scaled_wall_s(window):
    """A measured window's host wall time, scaled to the nominal host."""
    return window["wall_s"] * stats.host_scale(window["ref_ns"])


def end_to_end(raw):
    """The least cost over the run's executions of one seed: per slice for
    the slice median, per execution for CPU and check time. Every host
    time is first scaled to the nominal host: a window's by the median of
    the reference passes between its slices, a set-up's or a check's by the
    pass taken beside it."""
    execs = raw["executions"]
    scaled = []
    for e in execs:
        w = e["window"]
        k = stats.host_scale(w["ref_ns"])
        scaled.append([(s * k, n) for s, n in w["slices"]])
    per_slice = stats.per_op_slices(stats.slice_minimum(scaled))
    cpu_s = min(e["window"]["cpu_s"] * stats.host_scale(e["window"]["ref_ns"]) for e in execs)
    verify_s = min(stats.median(stats.scaled_pairs(e["verify_s"], e["verify_ref_ns"]))
                   for e in execs)
    finished = execs[0]["tally"]["finished"]
    recorded = execs[0]["recorded_ops"]
    return {
        "wall_us_per_op_p50": (stats.slice_percentile(per_slice, 0.50), "us"),
        "cpu_us_per_op": (stats.per_op(cpu_s * 1e6, finished), "us"),
        "setup_s": (stats.median(stats.scaled_pairs(raw["setup_s"], raw["setup_ref_ns"])), "s"),
        "heap_mb": (raw["heap_mb"], "MB"),
        "verify_us_per_op": (stats.per_op(verify_s * 1e6, recorded), "us"),
    }


CRITPATH_SEGMENTS = ["transit", "queue", "force", "follower_force", "ack_wait",
                     "apply", "read", "guard", "wait_lsn"]


def per_layer(raw):
    """Counts come from the untraced window's before/after counter
    snapshots; timings, gauges and attribution from the traced window."""
    r0 = raw["executions"][0]
    w, tr, tally = r0["window"], raw["traced"], r0["tally"]
    ops = tally["finished"]
    if ops <= 0:
        raise stats.ZeroOps("no operation completed")
    d = {k: w["after"][k] - w["before"][k] for k in w["before"]}
    r = stats.ratio
    msgs = d["net_delivered"] + d["net_dropped"]
    gets = d["cache_hits"] + d["cache_misses"]
    strong = d["leased"] + d["guarded"]
    timeline = d["leader_timeline"] + d["follower_timeline"]
    m = r0["model"]
    k = stats.host_scale(w["ref_ns"])
    slices = stats.per_op_slices([(s * k, n) for s, n in w["slices"]])
    out = {
        "engine.events_per_op": (d["events"] / ops, "count"),
        "engine.event_ns_p50": (tr["event_ns_p50"], "ns"),
        "engine.event_ns_p99": (tr["event_ns_p99"], "ns"),
        "engine.heavy_share": (tr["heavy_share"], "frac"),
        "engine.sim_s_per_wall_s": (w["sim_s"] / scaled_wall_s(w), "s/s"),
        "engine.slice_us_per_op_p95": (stats.slice_percentile(slices, 0.95), "us"),
        "network.msgs_per_op": (msgs / ops, "count"),
        "network.bytes_per_op": (d["net_bytes"] / ops, "B"),
        "network.dropped_frac": (r(d["net_dropped"], msgs), "frac"),
        "client.submit_ns": (tr["submit_ns"], "ns"),
        "client.retries_per_op": (d["retries"] / ops, "count"),
        "client.failed_frac": (stats.failed_frac(tally), "frac"),
        "cohort.writes_per_force": (r(d["committed_writes"], d["wal_forces"]), "count"),
        "commit_queue.depth_p99": (tr["commit_queue_depth_p99"], "count"),
        "cohort.leased_frac": (r(d["leased"], strong), "frac"),
        "cohort.follower_frac": (r(d["follower_timeline"], timeline), "frac"),
        "cohort.token_wait_frac": (r(d["token_waits"], timeline), "frac"),
        "store.cache_hit_frac": (r(d["cache_hits"], gets), "frac"),
        "store.probes_per_get": (r(d["sstables_probed"], gets), "count"),
        "store.skips_per_get": (r(d["sstables_skipped"], gets), "count"),
        "store.get_ns": (raw["store"]["get_ns"], "ns"),
        "store.compaction_bytes_per_op": (d["compaction_bytes"] / ops, "B"),
        "store.recover_ms": (raw["store"]["recover_ms"], "ms"),
        "wal.forces_per_op": (d["wal_forces"] / ops, "count"),
        "txn.abort_frac": (r(tally["txn_aborts"], tally["txn_attempts"]), "frac"),
        "coord.elections": (tr["elections"], "count"),
        "coord.sessions_expired": (tr["sessions_expired"], "count"),
        "history.record_ns": (tr["record_ns"], "ns"),
        "gc.minor_words_per_op": (d["minor_words"] / ops, "words"),
        "gc.promoted_words_per_op": (d["promoted_words"] / ops, "words"),
        "gc.major_collections": (d["major_collections"], "count"),
        "trace.overhead_frac": (scaled_wall_s(raw["traced_window"])
                                / scaled_wall_s(raw["baseline_window"]) - 1.0, "frac"),
        "trace.dropped_events": (tr["trace_dropped"], "count"),
        "model.p50_ms": (m["p50_ms"], "ms"),
        "model.p99_ms": (m["p99_ms"], "ms"),
        "model.ops_per_sim_s": (m["ops_per_sim_s"], "1/s"),
        "model.unavailable_ms": (m["unavailable_ms"], "ms"),
    }
    for s in CRITPATH_SEGMENTS:
        out["critpath.%s_ms" % s] = (tr["critpath.%s_ms" % s], "ms")
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    raw = run_harness(args, os.path.join(OUT_DIR, "raw-%s.json" % tag),
                      os.path.join(OUT_DIR, "spans-%s.tsv" % tag))

    if raw["violations"]:
        for invariant, detail in raw["violations"][:20]:
            print("perfbench: violation [%s] %s" % (invariant, detail), file=sys.stderr)
        fail("%d correctness violations" % len(raw["violations"]))
    if args.trace and not (raw["traced_model"] == raw["baseline_model"]
                           == raw["executions"][0]["model"]):
        fail("the traced run's model outputs differ from the untraced run's")
    key = "%s-s%d-%ds-%s" % (args.workload, args.seed, args.seconds, source_digest())
    try:
        # Every execution of the seed, in this run and in earlier ones, must
        # reproduce the first one's model outputs.
        for e in raw["executions"]:
            stats.check_model(os.path.join(OUT_DIR, "model"), key, e["model"])
        metrics = per_layer(raw) if args.trace else end_to_end(raw)
    except (stats.Nondeterministic, stats.ZeroOps, stats.TooFewSlices) as e:
        fail(str(e))

    tallies = [e["tally"] for e in raw["executions"]]
    print(json.dumps({
        "correct": True,
        "attempted": sum(t["attempted"] for t in tallies),
        "failed": sum(stats.failed_count(t) for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

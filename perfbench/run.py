#!/usr/bin/env python3
"""End-to-end benchmark of the Dike simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests 0-31
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds perfbench/ (which compiles ../src)
into .bench_build/, runs the workload for S seconds, checks every
operation's output against perfbench/digests.json, and prints the metrics;
the last line of stdout is one JSON object. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones. Raw measurements, spans and the host
stamp go to .bench_build/results/. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import selftest  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ["paper_grid", "tenants_4096", "supervised_recovery"]
BUSY_THREADS = 2  # the grid pool and the clustered plan phase
TRACE_LIMIT_PCT = 5.0  # unattributed wall time a traced pass may leave
CHILD_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END = [
    ("sim_ticks_per_s", "ticks/s"),
    ("quantum_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("sim.self_s", "s"),
    ("sim.ns_per_tick", "ns"),
    ("sim.ticks", "count"),
    ("sched.sample_s", "s"),
    ("sched.swaps", "count"),
    ("sched.migrations", "count"),
    ("core.decide_s", "s"),
    ("core.decide_p50_us", "us"),
    ("core.decide_p99_us", "us"),
    ("core.decide_samples", "count"),
    ("core.plan_s", "s"),
    ("core.commit_s", "s"),
    ("core.acted_share", "ratio"),
    ("core.swap_yield", "ratio"),
    ("session.step_s", "s"),
    ("util.pool_busy_share", "ratio"),
    ("exp.run_max_s", "s"),
    ("telemetry.stream_append_s", "s"),
    ("telemetry.stream_bytes", "bytes"),
    ("ckpt.payload_ms_p50", "ms"),
    ("ckpt.write_ms_p50", "ms"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.scan_ms", "ms"),
    ("ckpt.restore_ms", "ms"),
    ("ckpt.writes", "count"),
    ("ckpt.restores", "count"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build; output goes to stderr."""
    if not (ROOT / "src" / "exp" / "runner.hpp").is_file():
        raise SystemExit("perfbench: no Dike sources under %s/src; run from "
                         "the root of a full checkout" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_binary(workload, seed, seconds, trace, out_dir, passes=0):
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(out_dir)]
    if passes:
        command += ["--passes", str(passes)]
    env = dict(os.environ, DIKE_JOBS=str(BUSY_THREADS))
    subprocess.run(command, check=True, env=env, timeout=CHILD_LIMIT_S,
                   stdout=sys.stderr)
    with open(out_dir / "summary.json") as f:
        return json.load(f)


def load_reference(workload, seed):
    try:
        with open(DIGESTS) as f:
            recorded = json.load(f)["workloads"]
    except (OSError, ValueError, KeyError):
        return None
    return recorded.get(workload, {}).get(str(seed))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    # Only ask git when the checkout itself is a repository, so the lookup
    # never wanders into a parent directory.
    if not (ROOT / ".git").exists():
        return "unknown (checkout is not a git repository)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_stamp(summary):
    build_type = summary["host"]["build_type"]
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": cpu_model(),
        "compiler": summary["host"]["compiler"],
        "build_type": build_type,
        "optimised": build_type in ("Release", "RelWithDebInfo", "MinSizeRel"),
        "git_commit": git_commit(),
    }


def end_to_end(untraced, summary):
    """Metrics of the untraced passes (the ones a user would see).

    Passes rotate over the host's CPUs (see NOTES.md), and each time is
    taken from the best pass: on a shared host a pass only ever runs slower
    than the code allows, so the best pass is the figure least coloured by
    neighbours. Within a pass, quantum_p50_ms is the median of its samples.
    """
    return {
        "sim_ticks_per_s": max(p["ticks"] / p["wall_s"] for p in untraced),
        "quantum_p50_ms": min(stats.percentile(p["quantum_ms"], 50)
                              for p in untraced),
        "setup_s": min(p["setup_s"] for p in untraced),
        "peak_rss_mb": summary["peak_rss_mb"],
    }


def per_layer(traced, untraced, notes):
    """Metrics of the traced passes: medians per pass, percentiles over the
    pooled span samples. A layer a workload does not exercise reads 0."""
    def med(f):
        return statistics.median([f(p) for p in traced])

    def self_s(*names):
        return med(lambda p: sum(p["trace"]["self_s"][n] for n in names))

    def count(name):
        return med(lambda p: p["trace"]["counts"][name])

    def total(name):
        return sum(p["trace"]["counts"][name] for p in traced)

    def pooled(name):
        return [v for p in traced for v in p["trace"]["samples_ns"][name]]

    def p50(name, scale):
        values = pooled(name)
        return stats.percentile(values, 50) / scale if values else 0.0

    decide = pooled("decide")
    p99, used, n = stats.tail_percentile(decide, 99)
    if used is not None and used < 99:
        notes.append("core.decide_p99_us is p%.2f: %d samples leave fewer "
                     "than %d beyond p99" % (used, n, stats.MIN_BEYOND))
    elif used is None and n:
        notes.append("core.decide_p99_us is the maximum: only %d samples" % n)
        p99 = max(decide)
    acted, quanta = total("acted_quanta"), total("dike_quanta")
    swaps, pairs = total("swaps_executed"), total("pairs_considered")
    untraced_wall = min(p["wall_s"] for p in untraced)
    traced_wall = min(p["wall_s"] for p in traced)
    return {
        "sim.self_s": self_s("sim_run"),
        "sim.ns_per_tick": med(
            lambda p: p["trace"]["self_s"]["sim_run"] * 1e9 / p["ticks"]),
        "sim.ticks": med(lambda p: p["ticks"]),
        "sched.sample_s": self_s("policy"),
        "sched.swaps": count("swaps"),
        "sched.migrations": count("migrations"),
        "core.decide_s": med(lambda p: p["trace"]["layer_self_s"]["core"]),
        "core.decide_p50_us": p50("decide", 1e3),
        "core.decide_p99_us": (p99 or 0.0) / 1e3,
        "core.decide_samples": len(decide),
        "core.plan_s": self_s("plan"),
        "core.commit_s": self_s("commit"),
        "core.acted_share": acted / quanta if quanta else 0.0,
        "core.swap_yield": swaps / pairs if pairs else 0.0,
        "session.step_s": self_s("session_step"),
        "util.pool_busy_share": med(
            lambda p: sum(p["trace"]["run_s"]) / (p["threads"] * p["wall_s"])),
        "exp.run_max_s": med(lambda p: max(p["trace"]["run_s"])),
        "telemetry.stream_append_s": self_s("stream_append", "stream_sync"),
        "telemetry.stream_bytes": count("stream_bytes"),
        "ckpt.payload_ms_p50": p50("ckpt_payload", 1e6),
        "ckpt.write_ms_p50": p50("ckpt_write", 1e6),
        "ckpt.bytes": count("checkpoint_bytes"),
        "ckpt.scan_ms": p50("ckpt_scan", 1e6),
        "ckpt.restore_ms": p50("ckpt_restore", 1e6),
        "ckpt.writes": count("checkpoint_writes"),
        "ckpt.restores": count("restores"),
        "trace.unattributed_pct": med(
            lambda p: p["trace"]["unattributed_pct"]),
        "trace.overhead_pct": 100.0 * (traced_wall / untraced_wall - 1.0),
    }


def layer_ledger(traced):
    """Median self seconds per layer, for the printed ledger."""
    layers = sorted({k for p in traced for k in p["trace"]["layer_self_s"]})
    return {layer: statistics.median([p["trace"]["layer_self_s"][layer]
                                      for p in traced]) for layer in layers}


def benchmark(args):
    build()
    out_dir = RESULTS_DIR / ("%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    summary = run_binary(args.workload, args.seed, args.seconds, args.trace,
                         out_dir)
    passes = summary["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    notes = []
    reference = load_reference(args.workload, args.seed)
    if reference is None:
        notes.append("digest not checked: no recorded digest for %s seed %d; "
                     "checked invariants and pass-to-pass agreement only" % (
                         args.workload, args.seed))
    attempted, failed, problems = stats.account_ops(passes, reference)
    correct = failed == 0
    host = host_stamp(summary)
    if not host["optimised"]:
        notes.append("NON-OPTIMISED BUILD (%s): timings are not comparable"
                     % host["build_type"])

    kinds = {}
    if args.trace:
        metrics = per_layer(traced, untraced, notes)
        units = dict(PER_LAYER)
        if metrics["trace.unattributed_pct"] > TRACE_LIMIT_PCT:
            correct = False
            problems.append("trace.unattributed_pct %.2f%% exceeds %.0f%%" % (
                metrics["trace.unattributed_pct"], TRACE_LIMIT_PCT))
        if failed:
            problems.append("traced numbers discarded: outputs did not match")
        if host["nproc"] < BUSY_THREADS:
            kinds["util.pool_busy_share"] = "unmeasured (nproc %d < %d " \
                "busy threads)" % (host["nproc"], BUSY_THREADS)
    else:
        metrics = end_to_end(untraced, summary)
        units = dict(END_TO_END)

    print("perfbench %s seed %d trace %d: %d untraced + %d traced passes "
          "in %.1f s" % (args.workload, args.seed, args.trace, len(untraced),
                         len(traced), summary["elapsed_s"]))
    print("host: nproc=%d cpu=%r compiler=%r build=%s%s commit=%s" % (
        host["nproc"], host["cpu_model"], host["compiler"],
        host["build_type"], "" if host["optimised"] else " (NOT OPTIMISED)",
        host["git_commit"]))
    for name, value in metrics.items():
        print("  %-28s %16.6g %-8s %s" % (
            name, value, units[name], kinds.get(name, "measured")))
    print("  %-28s %16.6g %-8s %s" % (
        "ops_failed_pct", 100.0 * failed / attempted, "%",
        "measured (%d of %d failed)" % (failed, attempted)))
    if args.trace:
        for layer, seconds in layer_ledger(traced).items():
            print("  ledger %-21s %16.6g s" % (layer, seconds))
    for line in notes + problems[:20]:
        print("note: " + line)

    with open(out_dir / "result.json", "w") as f:
        json.dump({"host": host, "correct": correct, "attempted": attempted,
                   "failed": failed, "problems": problems, "notes": notes,
                   "metrics": {n: {"value": v, "unit": units[n],
                                   "kind": kinds.get(n, "measured")}
                               for n, v in metrics.items()}}, f, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record_digests(seeds):
    """Regenerate digests.json: two untraced passes per (workload, seed),
    which must agree with each other and report no error."""
    build()
    recorded = {w: {} for w in WORKLOADS}
    for workload in WORKLOADS:
        for seed in seeds:
            out_dir = RESULTS_DIR / ("record-%s-%d" % (workload, seed))
            passes = run_binary(workload, seed, 1, 0, out_dir,
                                passes=2)["passes"]
            _, failed, problems = stats.account_ops(passes, None)
            if failed:
                raise SystemExit("cannot record %s seed %d: %s" % (
                    workload, seed, problems[0]))
            recorded[workload][str(seed)] = stats.pass_digest(passes[0])
            log("recorded %s seed %d" % (workload, seed))
    doc = {
        "about": "per workload and seed: the first 16 hex digits of the "
                 "SHA-256 of the pass's operation digests (FNV-1a 64 of each "
                 "operation's deterministic output), one per line in order",
        "regenerate": "python3 perfbench/run.py --record-digests %d-%d" % (
            seeds[0], seeds[-1]),
        "workloads": recorded,
    }
    with open(DIGESTS, "w") as f:
        json.dump(doc, f, indent=0, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="LO-HI", type=seed_range)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    started = time.monotonic()
    if not selftest.run_quietly():
        log("perfbench: self-tests failed")
        return 1
    if args.self_test:
        return 0
    if args.record_digests is not None:
        record_digests(list(args.record_digests))
        log("recorded digests in %.0f s" % (time.monotonic() - started))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return benchmark(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        sys.exit(1)

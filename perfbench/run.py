#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
emulator libraries and the perfbench binary (Release) under the directory
named by CARGO_TARGET_DIR (default .bench_build); later runs rebuild only
what changed. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end_to_end metrics of BENCHMARK.json, --trace 1 its per_layer metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# kvs_overwrite_gc runs by hand only: it crashes the emulator (NOTES.md).
WORKLOADS = ("kvs_read", "kvs_update", "kvs_overwrite_gc", "rack_churn", "rack_churn_central")
# What one binary run must finish within (the build is timed separately).
RUN_LIMIT_S = 160
BUILD_LIMIT_S = 850
# Metrics that come from the simulated clock alone: identical for one seed.
SIM_METRICS = ("sim_ops_per_s", "sim_p50_us", "sim_p99_us", "sim_p999_us", "ok_frac")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the binary (both no-ops when nothing changed);
    returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    deadline = time.monotonic() + BUILD_LIMIT_S
    with open(log_path, "w") as build_log:
        for step in steps:
            try:
                result = subprocess.run(step, stdout=build_log, stderr=subprocess.STDOUT,
                                        timeout=max(1, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as error:
                log(f"perfbench: build step {step[:2]} failed: {error}")
                return None
            if result.returncode != 0:
                with open(log_path) as f:
                    log("perfbench: build failed; last lines of " + log_path)
                    log("".join(f.readlines()[-30:]))
                return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def run_binary(binary, args, limit_s):
    """Runs the binary; returns its last stdout line parsed as JSON, or None."""
    try:
        result = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                                timeout=limit_s)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args} did not finish within {limit_s:.0f} s")
        return None
    lines = result.stdout.strip().splitlines()
    if result.returncode < 0:
        log(f"perfbench: {args} was killed by signal {-result.returncode}")
        return None
    if result.returncode != 0 or not lines:
        log(f"perfbench: {args} exited with {result.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: {args} printed no result")
        return None


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def commit():
    """The checked-out commit, read from .git without running git (a checkout
    may have no .git, and git would search the directories above it)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def result(raw, declared):
    """The final result line from the binary's output and the declared
    metrics: correct only if the binary's checks passed and it produced
    every declared metric, and only those, as a finite number."""
    produced = raw.get("metrics", {})
    names = [m["name"] for m in declared]
    problems = list(raw.get("errors", []))
    missing = [n for n in names if n not in produced]
    extra = sorted(set(produced) - set(names))
    if missing:
        problems.append("metrics not produced: " + ", ".join(missing))
    if extra:
        problems.append("metrics not declared in BENCHMARK.json: " + ", ".join(extra))
    metrics = {}
    for m in declared:
        value = produced.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            if m["name"] in produced:
                problems.append(f"metric {m['name']} is not a finite number")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = bool(raw.get("correct")) and not problems
    return {"correct": correct, "attempted": int(raw.get("attempted", 0)),
            "failed": int(raw.get("failed", 0)), "metrics": metrics}, problems


def run(args):
    binary = build()
    if binary is None:
        return 1
    raw = run_binary(binary, ["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)],
                     RUN_LIMIT_S)
    if raw is None:
        return 1
    final, problems = result(raw, benchmark_spec()["per_layer" if args.trace else "end_to_end"])
    env = dict(raw.get("env", {}), seed=args.seed, commit=commit())
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"run: workload={raw['workload']} trace={args.trace} repetitions={raw['reps']} "
          f"simulated_ops={raw['sim_ops']} latency_samples={raw['latency_samples']} "
          f"failures_by_status={json.dumps(raw.get('failures_by_status', {}))} "
          f"host={json.dumps(raw.get('host', {}), sort_keys=True)}")
    for problem in problems:
        print("check failed: " + problem)
    print(json.dumps(final), flush=True)
    return 0


def self_test():
    """Same seed -> identical simulated metrics; another seed -> valid output
    that differs; percentile, failure-fraction and self-time extraction
    checked on synthetic input (in the binary); result assembly checked here.
    Covers the workloads BENCHMARK.json lists."""
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)
            log("self-test FAILED: " + what)

    declared = [{"name": "a_us", "unit": "us"}, {"name": "ok_frac", "unit": "1"}]
    final, _ = result({"correct": True, "attempted": 10, "failed": 1, "errors": [],
                       "metrics": {"a_us": 1.5, "ok_frac": 0.9}}, declared)
    expect(final == {"correct": True, "attempted": 10, "failed": 1,
                     "metrics": {"a_us": {"value": 1.5, "unit": "us"},
                                 "ok_frac": {"value": 0.9, "unit": "1"}}},
           "result line carries values, units and counts")
    final, _ = result({"correct": True, "attempted": 1, "failed": 0, "metrics": {"a_us": 1}},
                      declared)
    expect(not final["correct"], "a missing metric makes the run incorrect")
    final, _ = result({"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {"a_us": float("nan"), "ok_frac": 1}}, declared)
    expect(not final["correct"], "a non-finite metric makes the run incorrect")
    final, _ = result({"correct": False, "attempted": 1, "failed": 0, "errors": ["x"],
                       "metrics": {"a_us": 1, "ok_frac": 1}}, declared)
    expect(not final["correct"], "a failed output check makes the run incorrect")

    binary = build()
    if binary is None:
        return 1
    expect(subprocess.run([binary, "--self-test"]).returncode == 0, "binary self-test")
    for workload in [w["name"] for w in benchmark_spec()["workloads"]]:
        runs = [run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                    "--seconds", "0", "--trace", "0"], RUN_LIMIT_S)
                for seed in (7, 7, 8)]
        if None in runs:
            expect(False, f"{workload}: a run failed")
            continue
        same = [json.dumps({k: r["metrics"][k] for k in SIM_METRICS}) for r in runs]
        for r in runs:
            expect(r["correct"], f"{workload}: output checks pass ({r['errors']})")
        expect(same[0] == same[1], f"{workload}: one seed gives identical simulated metrics")
        expect(same[0] != same[2], f"{workload}: another seed gives other simulated metrics")
        log(f"self-test: {workload} seeds 7, 7, 8 -> {same[0]} / {same[2]}")
    log("self-test: " + ("ok" if not failures else f"{len(failures)} FAILED"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

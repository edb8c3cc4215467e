#!/usr/bin/env python3
"""Benchmark entry point: build bcl_perf from source, run one workload.

    python3 bench/perf/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Configures and builds bench/perf into
build/perf (CMake, Release), then runs build/perf/bcl_perf on workload W with
a rep budget of S seconds (--traced when --trace 1).  The human table goes to
stderr; the last line of stdout is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1), each with the value bcl_perf reports for the
run (the median rep, or the best rep for host run times).  Exits
nonzero, without a result line, when the build or the run fails; exits
nonzero after printing the result when a correctness check failed.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = os.path.join("build", "perf")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join("bench", "perf"), "-B",
                   BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD_DIR, "-j4"])


def run_bench(cmd):
    """Runs bcl_perf in its own process group so a timeout stops its forked
    rep children too; returns (exit status, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"run.py: unknown workload {args.workload}")
        return 2

    t0 = time.monotonic()
    build()
    log(f"run.py: build ready in {time.monotonic() - t0:.1f} s")

    cmd = [os.path.join(BUILD_DIR, "bcl_perf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--traced")
    status, out = run_bench(cmd)
    lines = out.splitlines()
    for line in lines[:-1]:
        log(line)
    if not lines or not lines[-1].startswith("{"):
        log(f"run.py: bcl_perf exited {status} without a result")
        return 1
    res = json.loads(lines[-1])["workloads"][args.workload]

    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"run.py: bcl_perf did not report {m['name']} in {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(res["correct"]) and status == 0
    for err in res["errors"]:
        log(f"run.py: {err}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        sys.exit(1)

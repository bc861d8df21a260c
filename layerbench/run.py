#!/usr/bin/env python3
"""Builds and runs the layer-cost benchmark; prints its result JSON last.

    python3 layerbench/run.py --workload <bulk_stream|gateway_rpc|subscriber_join>
                              --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and the benchmark binary into .bench_build/layerbench (about a
minute on 4 cores); later runs only re-check the build. Build output goes to
.bench_build/layerbench/build.log, the program's own log lines (stderr) to
.bench_out/<workload>-<seed>-trace<0|1>.log, and traced runs leave their
spans and blocking-path ledger in .bench_out as well. Standard output ends
with one JSON object: correct, attempted, failed and metrics.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "layerbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("bulk_stream", "gateway_rpc", "subscriber_join")


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("layerbench: build failed: %s\n" % " ".join(cmd))
                return None
    return os.path.join(BUILD, "layerbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(
        OUT, "%s-%d-trace%d.log" % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT]
    # The set-up time is measured from here: the moment the benchmark's
    # process is launched (same clock as the binary's steady_clock).
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log,
                                  timeout=args.seconds + 120)
        except subprocess.TimeoutExpired:
            sys.stderr.write("layerbench: run timed out\n")
            return 3
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        sys.stderr.write("layerbench: exited with %d\n" % proc.returncode)
        return 4
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("layerbench: malformed result\n")
        return 5
    if not result["correct"]:
        with open(log_path) as f:
            for line in f:
                if "check failed" in line:
                    sys.stderr.write(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

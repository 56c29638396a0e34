#!/usr/bin/env python3
"""Builds and runs the DCP repo benchmark.

    python3 perfbench/run.py --workload cold_causal --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds perfbench/ (the DCP
library from src/ plus the benchmark driver) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs rebuild incrementally. Build
output goes to stderr. The driver's stdout is passed through; its last line is the
JSON result. Exits non-zero when the build or the run fails: without a result when it
never ran or its load generator missed its schedule, with "correct": false when a
correctness check failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cold_causal", "cold_sparse", "warm_serve")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    out_dir = os.path.join(build_dir, "run-" + args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    command = [os.path.join(build_dir, "dcp_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", out_dir]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        # Plan stores are scratch; the span dump stays for inspection.
        for name in os.listdir(out_dir) if os.path.isdir(out_dir) else ():
            if name.startswith("store-"):
                shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)

    sys.stdout.write(stdout)
    if proc.returncode != 0:
        print("perfbench: run failed with exit code %d" % proc.returncode, file=sys.stderr)
        return proc.returncode
    try:
        json.loads(stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

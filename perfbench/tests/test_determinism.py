#!/usr/bin/env python3
"""Determinism self-test of the repo benchmark.

    python3 perfbench/tests/test_determinism.py

Run from the repository root. For every workload it checks that
  * with one seed, train_tokens_per_s, attn_fwbw_ms (untraced run) and every plan.* /
    sim.* count (traced run) are bit-identical across two runs, and
  * a second seed yields different batches (the printed input fingerprint differs),
    so --seed really feeds the generators.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")
WORKLOADS = ("cold_causal", "cold_sparse", "warm_serve")
SEED = 101
# Long enough that every warm_serve round sends ~100 requests, so one late wake-up of
# the generator is unlikely to push its lateness p95 over the run-validity gate.
RUN_SECONDS = 3


def run(workload, seed, trace):
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
                         capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit("FAIL %s seed %d trace %d exited %d\n%s" %
                 (workload, seed, trace, out.returncode, out.stderr[-4000:]))
    lines = out.stdout.rstrip("\n").split("\n")
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    fingerprint = next(line.split()[1] for line in lines
                       if line.startswith("inputs.fingerprint "))
    return metrics, fingerprint


def expect_identical(workload, first, second, names):
    for name in names:
        if first[name] != second[name]:
            sys.exit("FAIL %s: %s differs across runs of one seed: %r vs %r" %
                     (workload, name, first[name], second[name]))


def main():
    for workload in WORKLOADS:
        untraced = [run(workload, SEED, 0) for _ in range(2)]
        expect_identical(workload, untraced[0][0], untraced[1][0],
                         ["train_tokens_per_s", "attn_fwbw_ms"])
        traced = [run(workload, SEED, 1)[0] for _ in range(2)]
        outcome = [n for n in traced[0] if n.startswith(("plan.", "sim."))]
        expect_identical(workload, traced[0], traced[1], outcome)
        other, other_fingerprint = run(workload, SEED + 1, 0)
        if other_fingerprint == untraced[0][1]:
            sys.exit("FAIL %s: seeds %d and %d generated the same batches" %
                     (workload, SEED, SEED + 1))
        if other["train_tokens_per_s"] == untraced[0][0]["train_tokens_per_s"]:
            sys.exit("FAIL %s: a second seed left train_tokens_per_s unchanged" % workload)
        print("ok %s: %d outcome metrics identical per seed; seed %d differs" %
              (workload, len(outcome) + 2, SEED + 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

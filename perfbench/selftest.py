#!/usr/bin/env python3
"""Self-test of the psmgen benchmark.

    python3 perfbench/selftest.py [--seconds S] [--workload W ...]

For every workload it checks that

1. a clean run passes every correctness check, and a run that corrupts
   one output before its check (--perturb: an artifact digest on
   train_long, an estimate on predict_csv) fails it;
2. every metric name printed, traced and untraced, is declared in
   BENCHMARK.json;
3. a second seed generates different inputs that still pass every check.

Prints one line per check and exits 1 if any fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_long", "predict_csv")


def run(workload, seed, seconds, trace, perturb=False):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if perturb:
        command.append("--perturb")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=900)
    stamp_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(stamp_line)["stamp"], json.loads(result_line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=2)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}

    failures = 0

    def report(ok, what):
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)

    for workload in args.workload or WORKLOADS:
        stamp1, clean = run(workload, 1, args.seconds, 0)
        report(clean["correct"] and clean["failed"] == 0,
               f"{workload}: clean run passes its checks")
        _, perturbed = run(workload, 1, args.seconds, 0, perturb=True)
        report(not perturbed["correct"] and perturbed["failed"] > 0,
               f"{workload}: a corrupted output trips the check")
        _, traced = run(workload, 1, args.seconds, 1)
        report(traced["correct"], f"{workload}: traced run passes its checks")
        for trace, result in ((0, clean), (1, traced)):
            names = set(result["metrics"])
            report(names == declared[trace],
                   f"{workload}: trace {trace} metrics match BENCHMARK.json "
                   f"(undeclared {sorted(names - declared[trace])}, "
                   f"missing {sorted(declared[trace] - names)})")
        stamp2, second = run(workload, 2, args.seconds, 0)
        report(stamp2["inputs_digest"] != stamp1["inputs_digest"] and
               second["correct"] and second["failed"] == 0,
               f"{workload}: seed 2 makes other inputs that pass")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

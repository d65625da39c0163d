#!/usr/bin/env python3
"""Runs one workload of the psmgen benchmark and prints its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from anywhere; it works in the checkout that holds it. Steps:

1. Builds the benchmark binary (perfbench/CMakeLists.txt, which builds the
   repository's libraries from src/) into $CARGO_TARGET_DIR, default
   .bench_build, under the checkout.
2. Sets the workload up SETUP_REPS times in fresh directories: inputs
   generated from the seed, CSVs written, reference models trained. The
   references must agree across repetitions; setup_s is the median wall
   time.
3. Measures the workload for S seconds (see perfbench/README.md).

The last stdout line is the result, one JSON object with the keys
correct, attempted, failed and metrics. The line before it stamps the
run with host, toolchain and source identity. Build and set-up chatter
goes to stderr. Exit code 0 once a result is printed; 2 when the
repository's sources are missing; 1 on any other failure.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_long", "predict_csv")
SETUP_REPS = 3
BINARY = "psmgen_perfbench"


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "--target", BINARY,
                    "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=840)
    return os.path.join(build_dir, BINARY)


def source_digest():
    """SHA-256 over the sources the binary is built from, for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if not f.endswith(".pyc")]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def read_reference(run_dir):
    with open(os.path.join(run_dir, "reference.txt"), encoding="utf-8") as f:
        return f.read()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--perturb", action="store_true",
                        help="self-test: corrupt one output before its check")
    args = parser.parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail(f"no psmgen sources under {ROOT}", 2)

    root = build_root()
    binary = build(os.path.join(root, "perfbench"))
    work = os.path.join(root, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s, references = [], []
        for k in range(SETUP_REPS):
            run_dir = os.path.join(work, f"setup{k}")
            start = time.monotonic()
            subprocess.run([binary, "setup", "--workload", args.workload,
                            "--seed", str(args.seed), "--dir", run_dir],
                           stdout=sys.stderr, check=True, timeout=30)
            setup_s.append(time.monotonic() - start)
            references.append(read_reference(run_dir))
            if k > 0:
                shutil.rmtree(run_dir)
        run_dir = os.path.join(work, "setup0")
        command = [binary, "run", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", args.trace, "--dir", run_dir]
        if args.perturb:
            command.append("--perturb")
        measured = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  check=True, timeout=args.seconds + 60)
        outcome = json.loads(measured.stdout.strip().splitlines()[-1])
        if args.trace == "1":
            spans = os.path.join(root, "spans")
            os.makedirs(spans, exist_ok=True)
            for name in ("spans-main.tsv", "spans-sweep.tsv"):
                shutil.copy(os.path.join(run_dir, name), os.path.join(
                    spans, f"{args.workload}-{args.seed}-{name}"))
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as e:
        fail(str(e))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Set-up is deterministic: every repetition must write the same inputs
    # and references.
    mismatches = sum(r != references[0] for r in references[1:])
    metrics = outcome["metrics"]
    if args.trace == "0":
        metrics = {"setup_s": {"value": statistics.median(setup_s),
                               "unit": "s"}, **metrics}
    stamp = dict(outcome["info"])
    inputs = [line.split()[1] for line in references[0].splitlines()
              if line.startswith("inputs ")]
    stamp.update(workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=int(args.trace),
                 setup_runs_s=setup_s, inputs_digest=inputs[0],
                 source_digest=source_digest(),
                 python=platform.python_version())
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": outcome["correct"] and mismatches == 0,
        "attempted": outcome["attempted"] + SETUP_REPS - 1,
        "failed": outcome["failed"] + mismatches,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repository benchmark: build perfbench_driver from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--negative-control] [--print-golden]

Run from the repository root. The first run configures and builds the
ccperf libraries and the driver under .bench_build/ (RelWithDebInfo, the
repository's default build type); later runs reuse that build. Each run is
its own process. The last line of stdout is the driver's result object;
the full record (host fingerprint, sample counts, failure share) and, for
--trace 1, the Chrome trace-event span file are written to .bench_results/.

--negative-control corrupts one output; the run exits 0 only if the
workload's output check caught it. --print-golden prints the values the
checks compare against, in the format of perfbench/golden.txt.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_results")
WORKLOADS = ("infer_dense", "infer_compressed", "explore_sweep", "serve_sim")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then let the build tool bring the driver up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no ccperf sources under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target",
                      "perfbench_driver", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"build step failed: {' '.join(step)} (see {log_path})")
    return os.path.join(BUILD, "perfbench_driver")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true")
    parser.add_argument("--print-golden", action="store_true")
    args = parser.parse_args()

    driver = build()
    os.makedirs(RESULTS, exist_ok=True)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", RESULTS, "--source-id", source_id(),
               "--golden", os.path.join(HERE, "golden.txt")]
    if args.negative_control:
        command.append("--negative-control")
    if args.print_golden:
        command.append("--print-golden")
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         cwd=ROOT, timeout=175)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != RESULT_KEYS:
        fail("driver printed no result object")
    if args.negative_control:
        if result["failed"] >= 1 and not result["correct"]:
            print(f"negative control: {args.workload} check fired "
                  f"({result['failed']}/{result['attempted']} failed)",
                  file=sys.stderr)
            return 0
        print(f"negative control: {args.workload} check did NOT fire",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

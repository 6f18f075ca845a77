#!/usr/bin/env python3
"""End-to-end benchmark of the TD-AC system.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tall_mv --seed 1 --seconds 15 --trace 0

Builds the library, tdac_cli, tdac_serve and the harness from source
(Release, CMake) into the build directory, then runs the harness, which
generates the workload's inputs from the seed, measures, checks every
output and prints one JSON result as the last line of stdout. Build output
goes to stderr. Exits non-zero, without a result, when the sources are
missing or the build fails; exits 1 on any wrong output.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "tdac_perf"])
    for step in steps:
        # Build logs go to stderr: stdout carries only the harness output.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)
    tools = os.path.join(build_dir, "tdac", "tools")
    harness = [
        os.path.join(build_dir, "tdac_perf"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--cli", os.path.join(tools, "tdac_cli"),
        "--serve", os.path.join(tools, "tdac_serve"),
        # Relative, so request lines to the daemon stay short and free of
        # whatever characters the checkout's absolute path holds.
        "--work", os.path.relpath(os.path.join(build_dir, "perfbench-work")),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(harness).returncode)


if __name__ == "__main__":
    main()

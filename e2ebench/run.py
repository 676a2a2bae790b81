#!/usr/bin/env python3
"""Build and run the end-to-end scenario benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload soak --seed 1 --seconds 20 --trace 0

Workloads: soak, soak-sharded, pilot, campaign. The first call configures
and builds the simulator and the benchmark (Release) under
.bench_build/e2ebench; later calls rebuild only what changed. Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result. With --trace 1 the spans of the traced runs are written to
.bench_build/e2ebench/spans-<workload>-<seed>.csv.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "e2ebench")


def build(root):
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "e2ebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scenarios", os.path.join(root, "scenarios")]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(root, BUILD_DIR,
                                        f"spans-{args.workload}-{args.seed}.csv")]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())

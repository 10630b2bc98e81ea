#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

Usage (from the root of a gatekit checkout):

    python3 campaign_bench/run.py --workload tcp_bulk --seed 1 \
        --seconds 35 --trace 0

The first run configures and builds campaign_bench/ (which compiles
../src) into .bench_build/; later runs only check that the build is up
to date. Build output goes to stderr, so the last line of stdout is the
driver's JSON result. The exit code is the driver's: 0 when every
device's results digest matched, non-zero otherwise.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "campaign_bench")
WORKLOADS = ("tcp_bulk", "pop_timeouts", "nat444_chain")


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "campaign_bench"],
        stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("campaign_bench: no gatekit sources at %s/src; run from the "
              "root of a full checkout" % ROOT, file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("campaign_bench: build failed: %s" % e, file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([
        os.path.join(BUILD, "campaign_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--digests", os.path.join(HERE, "digests.txt"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())

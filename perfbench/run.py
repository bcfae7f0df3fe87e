#!/usr/bin/env python3
"""Builds the program and the benchmark driver from source, then runs one
workload and relays its output; the last stdout line is the result JSON.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --test      # build and run the driver's tests

Run from the root of a checkout. Everything built or written goes under
.bench_build/ in that checkout. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("replay", "ingest-bulk", "live-open")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir, targets):
    """Configures once, then builds `targets`; build output goes to stderr."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets,
        stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--test", action="store_true",
                   help="build and run the load-generator tests")
    args = p.parse_args()
    if not args.test and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    out_dir = os.path.join(root, ".bench_build", "perfbench-out")
    try:
        build(build_dir, ["perfbench_test"] if args.test
              else ["perfbench_driver", "serve_digg"])
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2
    if args.test:
        return subprocess.run([os.path.join(build_dir, "perfbench_test")]
                              ).returncode

    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "serve_digg"),
           "--out-dir", out_dir]
    # The driver's stdout is relayed as is; its last line is the result.
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

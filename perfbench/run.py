#!/usr/bin/env python3
"""Entry point of the Session churn benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload reach_churn --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the recnet library from src/) into
.bench_build/perfbench with CMake in Release mode, then runs one workload
in its own process. Checkpoints and trace files go to .bench_out/. The last
line of standard output is the result object; build output goes to stderr.
Exits non-zero, without a result, when the build fails (for example when
src/ is absent).
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ("reach_churn", "region_ttl", "routes_sharded")
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    # One build at a time per tree; later runs only relink if sources changed.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (configure,
                    ["cmake", "--build", build_dir, "--target", "churn_bench",
                     "-j", jobs]):
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if proc.returncode != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "churn_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the Kosha benchmark binary from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mab|clients|churn --seed N \
        --seconds S --trace 0|1

The binary is built (Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, from perfbench/ and
../src without touching the repository's own CMake tree. Build output goes
to standard error; the last line of standard output is the benchmark's JSON
result. The exit code is the benchmark's: non-zero when the build fails or
any correctness check does.
"""

import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A failed configure leaves a cache that would mask the next try.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    done = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mab", "clients", "churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(bench_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "kosha_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", spans_dir]
    with subprocess.Popen(command) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())

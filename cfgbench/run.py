#!/usr/bin/env python3
"""Build the repository benchmark and run one workload.

    python3 cfgbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds cfgbench (the CMake project in this directory, which compiles the
library from ../src) into .bench_build/cfgbench at the repository root, then
runs it. Build output goes to stderr, so the last line of stdout is the
benchmark's result JSON. A traced run writes its Chrome trace to
.bench_build/traces/. Extra flags for the benchmark's own tests: --short
(scaled-down inputs) and --corrupt (corrupts one ranking before the output
check, which must then fail).

Exits non-zero, without a result, when the build fails or the library
sources are missing; otherwise with the benchmark's exit code, which is 0
only when every output was correct.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cfgbench")
BINARY = os.path.join(BUILD_DIR, "cfgbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("cfgbench: no library sources at %s" % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "cfgbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("cfgbench: build failed: %s" % error)

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.short:
        command.append("--short")
    if args.corrupt:
        command.append("--corrupt")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload redis-small --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-reference

The build lives in .bench_build/perfbench under the repository root. Build
output goes to stderr, so the binary's last stdout line is its result
object.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.write_reference:
        command = [binary, "--write-reference", REFERENCE]
    elif args.self_test:
        command = [binary, "--self-test", "--reference", REFERENCE]
    elif args.workload:
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--reference", REFERENCE]
        if args.trace:
            command += ["--spans", os.path.join(
                BUILD, "spans-%s-%d.csv" % (args.workload, args.seed))]
    else:
        parser.error("one of --workload, --self-test, --write-reference")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())

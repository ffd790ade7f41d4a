#!/usr/bin/env python3
"""Builds the serving benchmark from the checkout's sources and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload azure-durable --seed 1 --seconds 60 --trace 0

The first call configures and compiles into .bench_build/perfbench (a few
minutes); later calls only re-check the build. Build output goes to stderr;
stdout carries the benchmark's report, whose last line is one JSON object.
Any build or check failure exits non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src", "rs")):
        sys.stderr.write("perfbench: no library sources (src/rs) next to perfbench/\n")
        return False
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure + generator, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 1
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the consent-session benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <sql-cold|sql-warm|served-tcp> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The build (CMake, Release) goes to .bench_build/perfbench under the current
directory; its output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Exits non-zero, without a result,
when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "consent_bench")


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--parallel", jobs],
        stdout=sys.stderr)
    return result.returncode == 0 and os.path.exists(BINARY)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

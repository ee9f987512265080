#!/usr/bin/env python3
"""Builds e2e_bench from source and runs one benchmark workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the current directory; the first run configures and
compiles the library modules, later runs only relink what changed. All
build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Every argument is passed to e2e_bench.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources under %s/src; run from a full "
                 "checkout" % ROOT)
    cmake_dir = os.path.join(build_root, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(cmd))
    return os.path.join(cmake_dir, "e2e_bench")


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(build_root)
    args = [binary] + sys.argv[1:]
    if "--workdir" not in args:
        args += ["--workdir", os.path.join(build_root, "work")]
    sys.stdout.flush()
    sys.exit(subprocess.run(args).returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the lift-cpp system benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-suite --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds perfbench/ (the library layers under
src/ plus the benchmark program liftbench) into .bench_build/perfbench;
later calls only check that the build is current. All arguments are
passed on to liftbench; see perfbench/README.md. Build output goes to
stderr, so the last stdout line is liftbench's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def main():
    for need in ("src/CMakeLists.txt", "bench/suite/Benchmark.cpp",
                 "examples/graph", "examples/il"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing; run from a full checkout of the repository"
                 % need)
    if shutil.which("cmake") is None:
        fail("cmake not found")

    build = os.path.join(ROOT, ".bench_build", "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", build, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")

    binary = os.path.join(build, "liftbench")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()

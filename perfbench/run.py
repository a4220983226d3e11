#!/usr/bin/env python3
"""Build and run the mokasim benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The simulator library and the benchmark are compiled from this checkout
(Release) into .bench_build/perfbench; build output goes to stderr. The
benchmark's last stdout line is its JSON result. The exit code is the
benchmark's, or non-zero without a result when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_JOBS = "2"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"mokasim sources not found under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append([cmake, "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", BUILD, "-j", BUILD_JOBS])
    for cmd in steps:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr).returncode
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}")


def main(argv):
    build()
    if argv == ["--selftest"]:
        cmd = [os.path.join(BUILD, "perfbench_selftest")]
    else:
        cmd = [os.path.join(BUILD, "mokabench"), *argv,
               "--work-dir", os.path.join(BUILD, "work")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

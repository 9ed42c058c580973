#!/usr/bin/env python3
"""Builds the isex benchmark from source and runs one workload.

    python3 isexbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

Run from the root of the repository.  The first run configures and builds
isexbench/CMakeLists.txt (the isex libraries, isex_serve and the isexbench
runner) into .bench_build; later runs only check that the build is up to
date.  Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.  Exits non-zero without a result when the build
fails, for example when the isex sources are not there.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    step = ["cmake", "--build", build_dir, "-j", jobs,
            "--target", "isexbench", "isex_serve"]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    build_dir = os.path.abspath(".bench_build")
    if not build(build_dir):
        print("isexbench: build failed", file=sys.stderr)
        return 1
    runner = os.path.join(build_dir, "isexbench")
    return subprocess.run([runner] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds fba_bench from source and runs one benchmark workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build/ (both relative to the root); the first run
configures and compiles, later runs only check that the build is current.
Build output goes to stderr, so the last line on stdout is fba_bench's
JSON result. Exits non-zero, printing no result, when the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_JOBS = "4"


def build(build_dir):
    """Configures (once) and builds the fba_bench target; returns its path."""
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "fba_bench",
         "--parallel", BUILD_JOBS],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "fba_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        bench = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    # fba_bench validates the values; exec leaves no child process behind.
    os.execv(bench, [bench, f"--workload={args.workload}",
                     f"--seed={args.seed}", f"--seconds={args.seconds}",
                     f"--trace={args.trace}"])


if __name__ == "__main__":
    sys.exit(main())

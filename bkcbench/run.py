#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 bkcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: edge_224, batch_64, serve_tiny. The script
configures and builds this directory's CMake project (the bkcbench
binary, linked against the bkc library built from the repository's own
sources) as a Release build, then runs the binary. The build tree is
$CARGO_TARGET_DIR when set, otherwise .bench_build, relative to the
repository root. The first run builds; later runs only check that the
build is current. Build output goes to stderr, so the last line of
stdout is the JSON result of bkcbench. Per-run result files (with the host
fingerprint), traces and temporary containers go to <build tree>/results;
compare two sets of result files with bkcbench/compare.py.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        # Uncommitted changes to tracked files: HEAD is not what ran.
        diff = subprocess.run(["git", "-C", ROOT, "diff", "--quiet", "HEAD"],
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    if out.returncode != 0:
        return "none"
    return out.stdout.strip() + ("-dirty" if diff.returncode != 0 else "")


def build(cmake_dir):
    """Configure once, then (re)build bkcbench; output to stderr."""
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "bkcbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # A termination request unwinds through subprocess.run, which kills
    # and reaps the child before the script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: no bkc sources (CMakeLists.txt, src/) next to "
                 "bkcbench/; run it from a full checkout")

    tree = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    cmake_dir = os.path.join(tree, "cmake")
    try:
        build(cmake_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"run.py: build failed: {error}")

    command = [os.path.join(cmake_dir, "bkcbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", os.path.join(tree, "results"),
               "--git-sha", git_sha()]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())

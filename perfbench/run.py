#!/usr/bin/env python3
"""Build and run the m-LIGHT benchmark from the repository's own sources.

    python3 perfbench/run.py --workload query-sim --seed 1 --seconds 20 --trace 0

The Go build, its caches and the binary go to .bench_build/ at the root of
the checkout. All arguments are passed to the benchmark binary, whose last
line of standard output is the result; see perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        bench = subprocess.run([binary] + sys.argv[1:], cwd=HERE, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: benchmark failed: {err}", file=sys.stderr)
        return 1
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload ssb-fit --seed 1 --seconds 30 --trace 0

The program is built with the Go toolchain into the build directory
($CARGO_TARGET_DIR, default .bench_build), which also holds the Go build
cache, the determinism fingerprints, and the trace files, so a run reads and
writes nothing outside the checkout. The last line of standard output is the
JSON result of the run.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Run cmd to completion; kill it and wait for it on timeout."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    home = os.path.join(build, "home")
    for d in ("gocache", "gotmp", "gomod", home):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench-bin")
    try:
        code = run(["go", "build", "-o", binary, "."], BUILD_TIMEOUT_S,
                   cwd=BENCH_DIR, env=env, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build, "perfbench"),
           "--spec", os.path.join(ROOT, "BENCHMARK.json")]
    try:
        return run(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

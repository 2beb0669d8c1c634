#!/usr/bin/env python3
"""Builds and runs the gsgrow end-to-end benchmark.

    python3 e2ebench/run.py
        --workload mine_deep|mine_wide|serve_read|serve_write
        --seed N --seconds S --trace 0|1 [--size full|tiny] [--corrupt 0|1]

Run from the root of a source tree. The first run configures and builds
e2ebench/ (the gsgrow library from src/ plus the benchmark binary) into
.bench_build/e2ebench; later runs rebuild incrementally. Build output goes to
stderr. The binary's stdout is relayed unchanged: a "report" JSON line, then
the result line {"correct", "attempted", "failed", "metrics"} last.

Exit codes: 0 when every answer checked out, 1 when a check failed (the
result line says which counts), 2 when the benchmark could not be built or
run (no result line then).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "e2ebench-out")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(message):
    print("e2ebench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("gsgrow sources not found at %s" % os.path.join(ROOT, "src"))
        return None
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
                  "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(BUILD_DIR, "e2ebench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mine_deep", "mine_wide", "serve_read",
                                 "serve_write"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--corrupt", choices=["0", "1"], default="0")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--size", args.size, "--corrupt", args.corrupt,
               "--digests", os.path.join(HERE, "digests.txt"),
               "--out", OUT_DIR, "--git-sha", git_sha()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines or \
            not lines[-1].startswith('{"correct":'):
        log("benchmark exited %d without a result" % run.returncode)
        return 2
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

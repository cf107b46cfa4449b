#!/usr/bin/env python3
"""Builds and runs the eadp benchmark (see perfbench/README.md).

    python3 perfbench/run.py \
        --workload plan_cold|serve_hot|serve_hot_local|serve_churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build, relative to the root); each run's scratch files go to a
directory under it that is removed afterwards, and a traced run keeps its
spans in <build root>/traces/. The last stdout line is the result JSON; the
exit status is non-zero when the build fails, a correctness check fails, or
the run produces no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan_cold", "serve_hot", "serve_hot_local", "serve_churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def commit():
    """The checkout's commit, or 'unknown' outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    head = out.stdout.strip()
    return head if out.returncode == 0 and head else "unknown"


def build(build_root):
    """Configures and builds perfbench; returns the binary path or None."""
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.stderr.write("perfbench: no eadp sources next to perfbench/\n")
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.abspath(os.path.join(ROOT, build_root))
    try:
        binary = build(build_root)
    except (OSError, subprocess.SubprocessError) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    if binary is None:
        return 2

    scratch = os.path.join(build_root, "runs", "%s-%d-%d" % (args.workload, args.seed,
                                                             os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--commit", commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    finally:
        if args.trace:
            spans = os.path.join(scratch, "spans.jsonl")
            if os.path.isfile(spans):
                keep = os.path.join(build_root, "traces")
                os.makedirs(keep, exist_ok=True)
                shutil.move(spans, os.path.join(
                    keep, "%s-%d.jsonl" % (args.workload, args.seed)))
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: no result line\n")
        return 3
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: malformed result line\n")
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

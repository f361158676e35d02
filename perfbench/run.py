#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

The program is compiled from the checkout's own sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of stdout is the result object ({"correct", "attempted", "failed",
"metrics"}); the line before it is the full record. --record FILE also
appends the record to FILE, one JSON object per line, for compare.py.
--self-test builds and runs the benchmark's own unit tests instead.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["ingest", "durable"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", help="append the run's record to this file")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if args.self_test:
        if not build(build_dir, "perfbench_tests"):
            return 1
        return subprocess.run([os.path.join(build_dir, "perfbench_tests")]).returncode
    if not build(build_dir, "perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(build_dir, "work-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        print("perfbench: no result (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    if args.record:
        with open(args.record, "a") as f:
            f.write(lines[-2] + "\n")
    print(lines[-2])
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

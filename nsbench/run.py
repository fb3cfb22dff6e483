#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 nsbench/run.py --workload lowcf|highcf|service --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
nsbench/CMakeLists.txt (the library sources under src/ plus the program) in
Release mode under .bench_build/; later runs only rebuild what changed. The
program's last stdout line is the result JSON; its full report and, for
--trace 1, its Chrome trace-event file land in .bench_build/runs/. Exits
non-zero, without a result line, when the build fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "nsbench"
RUNS = BUILD_ROOT / "runs"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"nsbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output sent to stderr; returns the exit code.

    The compiler's temporary files go under .bench_build/, so the build
    writes nothing outside the checkout.
    """
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=timeout,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 1


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        code = run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            return False
    return run_quiet(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", "nsbench"], BUILD_TIMEOUT_S) == 0


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["lowcf", "highcf", "service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 1
    cmd = [str(BUILD / "nsbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha(),
           "--out-dir", str(RUNS)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

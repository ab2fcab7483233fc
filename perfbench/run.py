#!/usr/bin/env python3
"""Build and run the perfbench benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload gemm_stream|train_ae|serve_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds perfbench/ (which pulls in the
simulator through the root CMakeLists.txt) into .bench_build/perfbench,
then runs one workload. Stdout is the benchmark's: human-readable records,
then one JSON result line last. Records and Chrome traces land in
.bench_build/perfbench/out. Build output goes to stderr. The exit status is
the benchmark's (0 = every job matched the oracle); a failed build exits 3
without printing a result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
WORKLOADS = ("gemm_stream", "train_ae", "serve_mix")


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def revision():
    """The checkout's git revision; empty outside a git work tree. The
    ceiling keeps git from walking up into directories above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10,
                           env=env)
    except (OSError, subprocess.SubprocessError):
        return ""
    return r.stdout.strip() if r.returncode == 0 else ""


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's own tests")
    a = p.parse_args()
    os.chdir(ROOT)

    if a.self_test:
        if not build("perfbench_tests"):
            return 3
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    if a.workload is None:
        p.error("--workload is required")
    if not build("perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out-dir", OUT]
    rev = revision()
    if rev:
        cmd += ["--revision", rev]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

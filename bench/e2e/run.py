#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 bench/e2e/run.py --workload <name> --seed <n> [--seconds <s>]
                             [--trace <0|1>] [other pulse_bench_e2e flags]

Run it from the repository root. The first call configures bench/e2e, a
Release CMake project over ../../src, and builds it into
$CARGO_TARGET_DIR/e2e (default .bench_build/e2e). Later calls only let the
build tool confirm the binary is current. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
The exit code is the benchmark's, or the build's when the build fails.
"""

import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_BUILD_JOBS = 4


def run_to_stderr(cmd):
    code = subprocess.run(cmd, stdout=sys.stderr, check=False).returncode
    if code != 0:
        sys.exit(code)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = any(os.path.exists(os.path.join(build_dir, f))
                         for f in ("build.ninja", "Makefile"))
        if not configured:
            cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_to_stderr(cmd)
        jobs = min(MAX_BUILD_JOBS, len(os.sched_getaffinity(0)))
        run_to_stderr(["cmake", "--build", build_dir, "--target", "pulse_bench_e2e",
                       "-j", str(jobs)])


def main():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "e2e")
    build(build_dir)
    args = sys.argv[1:]
    if not any(a == "--workdir" or a.startswith("--workdir=") for a in args):
        args += ["--workdir", os.path.join(build_dir, "work")]
    proc = subprocess.Popen([os.path.join(build_dir, "pulse_bench_e2e")] + args)
    forward = lambda signum, _frame: proc.send_signal(signum)
    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    sys.exit(proc.wait())


if __name__ == "__main__":
    main()

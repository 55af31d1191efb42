#!/usr/bin/env python3
"""The repository benchmark: build the runner from source, run one workload.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the C-Nash library and the nash_serve
gateway from ../src in Release) into .bench_build/ at the repository root
(override with PERFBENCH_BUILD_DIR), then runs the runner from the repository
root. The runner's last stdout line is the JSON result; build output and the
human-readable tables go to stderr. Exits non-zero without a result when the
sources cannot be built.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_warm", "serve_cold", "solve_batch")
# The runner stops itself after 170 s; this only catches a wedged process.
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(
        os.path.join(ROOT, os.environ.get("PERFBENCH_BUILD_DIR", ".bench_build")))


def build(bdir):
    """Configure once, then an incremental build of the runner target."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            sys.exit(f"perfbench: cannot run {step[0]}: {err}")
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    binary = os.path.join(bdir, "perfbench")
    if not os.path.exists(binary):
        sys.exit("perfbench: build produced no runner binary")
    return binary


def git_sha():
    """HEAD of the checkout this script is in, read on every run; "unknown"
    outside a git checkout of its own."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = done.stdout.split()
    if (done.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unknown"
    return lines[1]


def reap_group(pgid):
    """SIGKILL whatever is left of the runner's process group (its gateway
    children) and wait until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(bdir, "perfbench-out"), "--git-sha", git_sha()]
    # Its own session, so that every gateway it spawned can be reaped with it.
    runner = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              start_new_session=True)
    try:
        out, _ = runner.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(runner.pid)
        runner.wait()
        sys.exit("perfbench: runner timed out")
    reap_group(runner.pid)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return runner.returncode


if __name__ == "__main__":
    sys.exit(main())

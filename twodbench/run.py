#!/usr/bin/env python3
"""Build and run the 2D-coded cache stack's benchmark.

Usage, from the repository root:

    python3 twodbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (release, offline) into CARGO_TARGET_DIR
(default `.bench_build`), pins itself and the benchmark to one CPU, runs
one workload and passes its output through. The last line of standard
output is the benchmark's JSON result. Exits nonzero, without a result,
when the build fails or the run does not finish in time.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def pin_to_one_cpu():
    """Pins this process (and so every child) to the highest-numbered CPU
    it may use: a single-connection closed loop has no parallelism to
    lose, and pinning removes cross-CPU wake-ups from every round trip."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
    except (AttributeError, OSError) as e:
        print(f"run.py: could not pin to one CPU: {e}", file=sys.stderr)


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "twodbench")
    pin_to_one_cpu()
    try:
        run = subprocess.run([binary, *sys.argv[1:]], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

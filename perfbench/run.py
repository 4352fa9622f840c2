#!/usr/bin/env python3
"""Builds and runs the HyperAlloc host-time benchmark.

    python3 perfbench/run.py --workload e1_resize --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (an optimised CMake build of ../src plus perfbench/) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. Each run executes the helper self-test, then the
benchmark, whose last line of output is the JSON result. A run whose
simulated outputs disagree with the recorded oracle exits non-zero and
prints no result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("e1_resize", "fleet_diurnal")
# Leaves headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target",
                    "perfbench", "perfbench_selftest"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    try:
        build(build_dir)
        subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                       check=True, stdout=sys.stderr)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"perfbench: build or self-test failed: {err}")
        return 1

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: no result within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"perfbench: exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.stderr.write(proc.stdout)
        log("perfbench: malformed result line")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

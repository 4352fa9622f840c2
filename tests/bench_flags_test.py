#!/usr/bin/env python3
"""Bad flags make each bench binary print its usage line and exit 2.

    bench_flags_test.py BENCH_RUNNER BENCH_FLEET BENCH_FAULTS BENCH_MULTIVM \
        BENCH_COMPILING BENCH_VFIO_COMPILE BENCH_INFLATE BENCH_FTQ BENCH_STREAM

Every case is rejected while the flags are parsed, before any simulation
starts, so the whole test takes milliseconds. Exits 1 naming every case
that did not exit 2 with a usage line (a case still running after 60 s
counts as one).
"""
import os
import subprocess
import sys

FLEET, MULTIVM = sys.argv[2], sys.argv[4]
CASES = [(binary, "--bogus") for binary in sys.argv[1:]] + [
    (FLEET, "--vms=1"),
    (FLEET, "--vms=abc"),
    (MULTIVM, "--vms=abc"),
]


def main():
    failures = []
    for binary, flag in CASES:
        name = f"{os.path.basename(binary)} {flag}"
        try:
            run = subprocess.run([binary, flag], capture_output=True,
                                 text=True, timeout=60, check=False)
        except subprocess.TimeoutExpired:
            failures.append(f"{name}: still running after 60 s")
            continue
        if run.returncode != 2 or "usage:" not in run.stderr:
            failures.append(f"{name}: exit {run.returncode}, stderr "
                            f"{run.stderr.strip()!r}")
    for failure in failures:
        print(f"bench_flags_test: FAIL: {failure}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"bench_flags_test: OK ({len(CASES)} bad invocations exit 2)")


if __name__ == "__main__":
    main()

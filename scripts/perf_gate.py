#!/usr/bin/env python3
"""Perf gate: compares a bench_runner JSON exactly against one baseline.

    perf_gate.py BENCH_BASELINE.json CURRENT.json

Every value of a `hyperalloc-bench-v7` document is deterministic —
virtual time, op counts, digests, attribution layer ns and shares —
except the host-dependent values in HOST. Every key must be present on
both sides, and every deterministic value must be identical in CURRENT
and the baseline: any difference fails (a smoke run against a full
baseline fails too). Then FLOORS and CEILINGS bound CURRENT alone; the
two wall-clock ratios among them are medians over interleaved
in-process pairs, so machine speed cancels. The semantic checks on the
document (determinism, charge closure, the fleet checks) are
bench_runner's own: it exits 1 when one fails.

Exit 1 on any failure. Stdlib-only; runs in CI containers with no extra
packages.
"""
import json
import sys

SPEEDUP = ("benches", "llfree_batch_alloc_free", "speedup_vs_single")
TELEMETRY = ("benches", "telemetry", "telemetry_overhead_pct")

# Values that depend on the host, not on the simulated system.
HOST = {("hardware_concurrency",), SPEEDUP, TELEMETRY}

# metric path -> minimum value required of CURRENT.
FLOORS = {
    # The batched LLFree path must stay at least 2x the single-frame one.
    SPEEDUP: 2.0,
    # The fleet policy loop must actually exercise the resize path.
    ("benches", "fleet", "resizes"): 1,
    # Huge-frame reclaim share: at least 80% of the huge frames
    # HyperAlloc reclaims must avoid per-4K EPT work — in BOTH churn
    # variants (`share` is the min of the two).
    ("benches", "huge_frame", "share"): 0.8,
    # Coalesced 2M invalidation must actually save flush entries vs
    # per-4K invalidation of the same reclaim.
    ("benches", "huge_frame", "flush_savings"): 0.9,
    # The compaction daemon must migrate stragglers, not no-op.
    ("benches", "huge_frame", "compaction_migrations"): 1,
}

# metric path -> maximum value allowed of CURRENT, on non-smoke runs
# (a smoke fleet finishes in milliseconds; its ratio is noise).
CEILINGS = {
    # Barrier-sampled telemetry must stay cheap enough to leave on:
    # <5% of the fleet's wall time.
    TELEMETRY: 5.0,
}


def fail(message):
    print(f"perf_gate: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")


def leaves(node, path=()):
    """Maps every leaf path of a JSON object to its value."""
    if not isinstance(node, dict):
        return {path: node}
    out = {}
    for key, value in node.items():
        out.update(leaves(value, path + (key,)))
    return out


def main():
    if len(sys.argv) != 3:
        fail("usage: perf_gate.py BENCH_BASELINE.json CURRENT.json")
    baseline = leaves(load(sys.argv[1]))
    current = leaves(load(sys.argv[2]))

    failures = []
    for path in sorted(baseline.keys() | current.keys()):
        name = ".".join(path)
        if path not in current:
            failures.append(f"{name}: missing from current")
        elif path not in baseline:
            failures.append(f"{name}: not in baseline (re-record it)")
        elif path not in HOST and current[path] != baseline[path]:
            failures.append(f"{name}: {baseline[path]} -> {current[path]}")

    bounds = [(path, floor, "floor") for path, floor in FLOORS.items()]
    if not current.get(("smoke",)):
        bounds += [(path, ceiling, "ceiling")
                   for path, ceiling in CEILINGS.items()]
    for path, bound, kind in sorted(bounds):
        name = ".".join(path)
        value = current.get(path)
        if value is None:
            failures.append(f"{name}: missing from current")
            continue
        ok = value >= bound if kind == "floor" else value <= bound
        print(f"perf_gate: {'ok  ' if ok else 'FAIL'} {name}: {value} "
              f"({kind} {bound})")
        if not ok:
            failures.append(f"{name}: {value} beyond {kind} {bound}")

    if failures:
        print(f"perf_gate: FAILED ({len(failures)} check(s) vs "
              f"{sys.argv[1]}):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        sys.exit(1)
    print(f"perf_gate: OK ({sys.argv[2]} identical to {sys.argv[1]} in "
          f"{len(baseline) - len(HOST)} deterministic values)")


if __name__ == "__main__":
    main()

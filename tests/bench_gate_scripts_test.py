#!/usr/bin/env python3
"""Inversion checks for the two bench gate scripts.

    bench_gate_scripts_test.py REPO_ROOT

Runs scripts/check_bench_json.py and scripts/perf_gate.py on the
committed BENCH_BASELINE.json and on mutated copies of it. The baseline
must pass both; every mutant must make the named script fail. A mutant
that passes means that gate has gone blind. Exits 1 naming every such
mutant.

perf_gate's telemetry ceiling bounds a host-dependent ratio, and the
baseline records whatever the recording host measured. The
self-comparison therefore expects exactly the verdict that value earns,
and the mutants start from a copy whose telemetry ratio sits inside the
ceiling, so each of them tests one gate only.
"""
import contextlib
import copy
import importlib.util
import io
import json
import os
import sys
import tempfile

ROOT = sys.argv[1]
BASELINE = os.path.join(ROOT, "BENCH_BASELINE.json")


def load_script(name):
    path = os.path.join(ROOT, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECK = load_script("check_bench_json")
GATE = load_script("perf_gate")
TMP = tempfile.TemporaryDirectory(prefix="bench_gate_scripts_test.")


def passes(script, doc):
    """True when `script` accepts `doc` (perf_gate: against BASELINE)."""
    path = os.path.join(TMP.name, "current.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    args = [path] if script is CHECK else [BASELINE, path]
    sys.argv = [script.__file__] + args
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            script.main()
    except SystemExit as e:
        return e.code in (0, None)
    return True


def leaves(node, path=()):
    if not isinstance(node, dict):
        return [path]
    return [leaf for key, value in node.items()
            for leaf in leaves(value, path + (key,))]


def parent_of(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def mutant(doc, path, value=None, delete=False):
    doc = copy.deepcopy(doc)
    parent = parent_of(doc, path)
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def main():
    with open(BASELINE, encoding="utf-8") as f:
        baseline = json.load(f)
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    expect(not baseline["smoke"], "the baseline is a full (non-smoke) run")
    expect(passes(CHECK, baseline), "check_bench_json accepts the baseline")
    overhead = GATE.TELEMETRY
    ceiling = GATE.CEILINGS[overhead]
    expect(passes(GATE, baseline) ==
           (parent_of(baseline, overhead)[overhead[-1]] <= ceiling),
           "perf_gate judges the baseline against itself by its ceiling")
    reference = mutant(baseline, overhead, ceiling - 0.1)
    expect(passes(GATE, reference), "perf_gate accepts the reference copy")

    # Every value is required: deleted, each must fail a script. Every
    # deterministic value is gated exactly: nudged by 0.001, each must
    # fail perf_gate.
    for path in leaves(reference):
        name = ".".join(path)
        value = parent_of(reference, path)[path[-1]]
        deleted = mutant(reference, path, delete=True)
        expect(not (passes(CHECK, deleted) and passes(GATE, deleted)),
               f"a script fails with {name} deleted")
        if (path not in GATE.HOST and isinstance(value, (int, float)) and
                not isinstance(value, bool)):
            expect(not passes(GATE, mutant(reference, path, value + 0.001)),
                   f"perf_gate fails with {name} changed by 0.001")

    speedup = GATE.SPEEDUP
    expect(not passes(GATE, mutant(reference, speedup, 1.9)),
           "perf_gate fails a 1.9 batch speedup")
    expect(not passes(GATE, mutant(reference, overhead, 5.1)),
           "perf_gate fails a 5.1% telemetry overhead on a full run")
    expect(not passes(GATE, mutant(reference, ("smoke",), True)),
           "perf_gate fails a smoke run against the full baseline")
    v6 = mutant(reference, ("schema",), "hyperalloc-bench-v6")
    expect(not passes(CHECK, v6), "check_bench_json rejects bench-v6")
    expect(not passes(GATE, v6), "perf_gate rejects bench-v6")

    # The span cross-checks the runner also enforces.
    span = ("benches", "fleet_span_check")
    resizes = reference["benches"]["fleet_span_check"]["resizes"]
    expect(not passes(CHECK, mutant(reference, span + ("spans",),
                                    resizes + 1)),
           "check_bench_json fails a span count that misses a resize")
    expect(not passes(CHECK, mutant(reference,
                                    ("benches", "multivm", "spans_dropped"),
                                    1)),
           "check_bench_json fails dropped multivm spans")

    for failure in failures:
        print(f"bench_gate_scripts_test: FAIL: {failure}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"bench_gate_scripts_test: OK ({len(leaves(reference))} "
          f"baseline values checked)")


if __name__ == "__main__":
    main()

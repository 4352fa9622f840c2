#!/usr/bin/env python3
"""Inversion checks for the bench gate script.

    bench_gate_scripts_test.py REPO_ROOT

Runs scripts/perf_gate.py on the committed BENCH_BASELINE.json and on
mutated copies of it. The baseline must pass; every mutant must make
perf_gate fail. A mutant that passes means the gate has gone blind.
Exits 1 naming every such mutant. (bench_runner judges the semantics of
its own document and exits 1 on a failed check; this test covers the
exact comparison against the baseline.)

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


GATE = load_script("perf_gate")
TMP = tempfile.TemporaryDirectory(prefix="bench_gate_scripts_test.")


def passes(doc):
    """True when perf_gate accepts `doc` against BASELINE."""
    path = os.path.join(TMP.name, "current.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    sys.argv = [GATE.__file__, BASELINE, path]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            GATE.main()
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
    overhead = GATE.TELEMETRY
    ceiling = GATE.CEILINGS[overhead]
    expect(passes(baseline) ==
           (parent_of(baseline, overhead)[overhead[-1]] <= ceiling),
           "perf_gate judges the baseline against itself by its ceiling")
    reference = mutant(baseline, overhead, ceiling - 0.1)
    expect(passes(reference), "perf_gate accepts the reference copy")

    # Every value is required: deleted, each must fail perf_gate, the
    # host-dependent ones too. Every deterministic value is gated
    # exactly: nudged by 0.001, each must fail perf_gate.
    for path in leaves(reference):
        name = ".".join(path)
        value = parent_of(reference, path)[path[-1]]
        expect(not passes(mutant(reference, path, delete=True)),
               f"perf_gate fails with {name} deleted")
        if (path not in GATE.HOST and isinstance(value, (int, float)) and
                not isinstance(value, bool)):
            expect(not passes(mutant(reference, path, value + 0.001)),
                   f"perf_gate fails with {name} changed by 0.001")

    speedup = GATE.SPEEDUP
    expect(not passes(mutant(reference, speedup, 1.9)),
           "perf_gate fails a 1.9 batch speedup")
    expect(not passes(mutant(reference, overhead, 5.1)),
           "perf_gate fails a 5.1% telemetry overhead on a full run")
    expect(not passes(mutant(reference, ("smoke",), True)),
           "perf_gate fails a smoke run against the full baseline")
    expect(not passes(mutant(reference, ("schema",), "hyperalloc-bench-v6")),
           "perf_gate rejects bench-v6")

    # The span checks bench_runner also enforces.
    span = ("benches", "fleet_span_check")
    resizes = reference["benches"]["fleet_span_check"]["resizes"]
    expect(not passes(mutant(reference, span + ("spans",), resizes + 1)),
           "perf_gate fails a span count that misses a resize")
    expect(not passes(mutant(reference,
                             ("benches", "multivm", "spans_dropped"), 1)),
           "perf_gate fails dropped multivm spans")

    for failure in failures:
        print(f"bench_gate_scripts_test: FAIL: {failure}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"bench_gate_scripts_test: OK ({len(leaves(reference))} "
          f"baseline values checked)")


if __name__ == "__main__":
    main()

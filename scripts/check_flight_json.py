#!/usr/bin/env python3
"""Validates a `hyperalloc-flight-v2` document.

    check_flight_json.py [--min-epochs=N] FLIGHT.json

A flight dump is one black-box flight-recorder ring frozen by the fleet
telemetry pipeline (bench_fleet --telemetry-out=PREFIX writes
PREFIX.flight<i>.json). --min-epochs=N additionally requires the ring to
cover at least N epochs up to the trigger. The bench documents need no
such script: each bench binary exits 1 when its own checks fail, and
scripts/perf_gate.py compares bench_runner's document exactly.

Stdlib-only on purpose: runs in CI containers with no extra packages.
"""
import json
import numbers
import sys


def fail(message):
    print(f"check_flight_json: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def require(doc, key, kind, ctx):
    if key not in doc:
        fail(f"{ctx}: missing key '{key}'")
    value = doc[key]
    if kind is numbers.Real:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        fail(f"{ctx}.{key}: expected {kind}, got {type(value).__name__}")
    return value


def check_flight(doc, min_epochs):
    """hyperalloc-flight-v2: one frozen flight-recorder dump."""
    trigger = require(doc, "trigger", dict, "$")
    kind = require(trigger, "kind", str, "trigger")
    if kind not in ("alert", "quarantine", "reject_spike"):
        fail(f"trigger.kind: unknown trigger '{kind}'")
    require(trigger, "epoch", numbers.Real, "trigger")
    require(trigger, "at_s", numbers.Real, "trigger")
    if kind == "quarantine":
        require(trigger, "vm", numbers.Real, "trigger")
    vms = require(doc, "vms", numbers.Real, "$")
    if vms <= 0:
        fail("flight dump covers no VMs")
    for alert in require(doc, "alerts", list, "$"):
        actx = "alerts[]"
        require(alert, "epoch", numbers.Real, actx)
        require(alert, "at_s", numbers.Real, actx)
        if require(alert, "kind", str, actx) not in ("latency_burn",
                                                     "pressure_burn"):
            fail(f"{actx}: unknown alert kind '{alert['kind']}'")
        require(alert, "burn_fast", numbers.Real, actx)
        require(alert, "burn_slow", numbers.Real, actx)
    epochs = require(doc, "epochs", list, "$")
    if len(epochs) < min_epochs:
        fail(f"flight ring covers {len(epochs)} epochs, "
             f"need >= {min_epochs}")
    previous = None
    for entry in epochs:
        ectx = f"epochs[{entry.get('epoch')}]"
        for key in ("epoch", "at_s", "pressure", "committed_bytes",
                    "limit_bytes", "wss_bytes", "rss_bytes", "busy_vms",
                    "quarantined_vms", "granted", "clipped", "rejected",
                    "rejected_delta", "faults", "retries", "rollbacks",
                    "latency_burn_fast", "latency_burn_slow",
                    "pressure_burn_fast", "pressure_burn_slow"):
            require(entry, key, numbers.Real, ectx)
        if previous is not None and entry["epoch"] != previous + 1:
            fail(f"{ectx}: ring epochs not consecutive "
                 f"({previous} -> {entry['epoch']})")
        previous = entry["epoch"]
        deltas = require(entry, "counter_deltas", dict, ectx)
        for name, value in deltas.items():
            if not isinstance(value, numbers.Real) or value <= 0:
                fail(f"{ectx}.counter_deltas.{name}: deltas must be "
                     f"positive (zero deltas are dropped)")
        omitted = require(entry, "vms_detail_omitted", numbers.Real, ectx)
        if omitted < 0:
            fail(f"{ectx}: vms_detail_omitted must be non-negative")
        detail = require(entry, "vms_detail", list, ectx)
        if len(detail) + omitted > vms:
            fail(f"{ectx}: vms_detail covers {len(detail)} rows plus "
                 f"{omitted} omitted, exceeding the {vms}-VM fleet")
        for vm in detail:
            vctx = f"{ectx}.vms_detail[{vm.get('vm')}]"
            for key in ("vm", "limit_bytes", "target_bytes",
                        "achieved_bytes", "wss_bytes", "rss_bytes",
                        "demand_bytes", "busy", "quarantined", "resizes",
                        "faults", "retries", "rollbacks",
                        "quarantined_frames"):
                require(vm, key, numbers.Real, vctx)
    # The trigger epoch must be the newest frame in the ring.
    if epochs and epochs[-1]["epoch"] != trigger["epoch"]:
        fail(f"trigger fired at epoch {trigger['epoch']} but the ring "
             f"ends at {epochs[-1]['epoch']}")


def main():
    min_epochs = 0
    paths = []
    for arg in sys.argv[1:]:
        if arg.startswith("--min-epochs="):
            min_epochs = int(arg[len("--min-epochs="):])
        else:
            paths.append(arg)
    if len(paths) != 1:
        fail("usage: check_flight_json.py [--min-epochs=N] FLIGHT.json")
    try:
        with open(paths[0], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {paths[0]}: {e}")

    schema = require(doc, "schema", str, "$")
    if schema != "hyperalloc-flight-v2":
        fail(f"unknown schema '{schema}' (want hyperalloc-flight-v2)")
    check_flight(doc, min_epochs)
    print(f"check_flight_json: OK ({paths[0]}, {schema}, "
          f"{len(doc['epochs'])} ring epochs)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Validates a bench JSON document.

Accepts the schemas the current binaries emit:
  hyperalloc-bench-v7        bench_runner: the deterministic bench gate
                             (batch ratio, span attribution, compile
                             fleet, policy fleet + span cross-check,
                             telemetry + flight probe, huge-frame study)
  hyperalloc-bench-fleet-v1  bench_fleet: one fleet section, the shape
                             v7 embeds plus the run's `wall_ms`
  hyperalloc-bench-faults-v1 bench_faults: degraded-mode reclaim sweep;
                             the zero-rate baseline must be clean
  hyperalloc-flight-v2       a black-box flight-recorder dump frozen by
                             the telemetry pipeline; --min-epochs=N
                             additionally requires the ring to cover at
                             least N epochs before the trigger

Stdlib-only on purpose: runs in CI containers with no extra packages.
Checks structure and types, plus the semantic gates the runner itself
enforces (multi-VM determinism, charge closure, span stream determinism,
the fleet span cross-check, fleet thread-count determinism and spike
SLO, telemetry determinism, huge-frame compaction). The two wall-clock
ratio bounds are scripts/perf_gate.py's.
"""
import json
import numbers
import sys


def fail(message):
    print(f"check_bench_json: FAIL: {message}", file=sys.stderr)
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


def check_phase(phase, ctx):
    """One attribution phase (inflate/deflate): totals plus charge closure."""
    if not require(phase, "found", bool, ctx):
        fail(f"{ctx}: request root span not found in trace")
    for key in ("total_vns", "charged_ns"):
        require(phase, key, numbers.Real, ctx)
    if not require(phase, "charge_closed", bool, ctx):
        fail(f"{ctx}: span charges do not sum to the root's virtual "
             f"duration ({phase['charged_ns']} != {phase['total_vns']})")
    layers = require(phase, "layers", dict, ctx)
    if not layers:
        fail(f"{ctx}: no per-layer attribution recorded")
    share_sum = 0.0
    for layer, entry in layers.items():
        require(entry, "ns", numbers.Real, f"{ctx}.layers.{layer}")
        share_sum += require(entry, "share", numbers.Real,
                             f"{ctx}.layers.{layer}")
    if not 0.98 <= share_sum <= 1.02:
        fail(f"{ctx}: layer shares sum to {share_sum:.3f}, expected ~1")


def check_faults(doc):
    """hyperalloc-bench-faults-v1: degraded-mode reclaim sweep."""
    require(doc, "pr", str, "$")
    require(doc, "smoke", bool, "$")
    require(doc, "seed", numbers.Real, "$")
    candidates = require(doc, "candidates", list, "$")
    if not candidates:
        fail("candidates: empty")
    for candidate in candidates:
        name = require(candidate, "name", str, "candidates[]")
        ctx = f"candidates[{name}]"
        sweep = require(candidate, "sweep", list, ctx)
        if not sweep:
            fail(f"{ctx}: empty sweep")
        baseline = None
        for point in sweep:
            pctx = f"{ctx}.sweep[{point.get('rate')}]"
            for key in ("rate", "reclaim_gibps", "virtual_ms",
                        "start_bytes", "target_bytes", "achieved_bytes",
                        "faults", "retries", "rollbacks", "injected_total"):
                require(point, key, numbers.Real, pctx)
            for key in ("complete", "timed_out", "quarantined"):
                require(point, key, bool, pctx)
            require(point, "plan", str, pctx)
            if point["rate"] == 0:
                baseline = point
        # The zero-rate baseline is the injection-off determinism anchor:
        # no faults may be observed and the request must fully complete.
        if baseline is None:
            fail(f"{ctx}: no zero-rate baseline in sweep")
        if baseline["faults"] != 0 or baseline["injected_total"] != 0:
            fail(f"{ctx}: zero-rate run observed faults "
                 f"({baseline['faults']} on spans, "
                 f"{baseline['injected_total']} injected)")
        if not baseline["complete"]:
            fail(f"{ctx}: zero-rate run did not complete its reclaim")
        if baseline["reclaim_gibps"] <= 0:
            fail(f"{ctx}: zero-rate run reclaimed nothing")


def check_fleet_telemetry(tel, ctx):
    """The telemetry digest subobject embedded in a fleet section."""
    require(tel, "enabled", bool, ctx)
    for key in ("epochs", "alerts", "flight_dumps"):
        require(tel, key, numbers.Real, ctx)
    for key in ("telemetry_digest", "flight_digest"):
        value = require(tel, key, str, ctx)
        if not value.startswith("0x") or len(value) != 18:
            fail(f"{ctx}.{key}: expected 0x-prefixed 64-bit hex, "
                 f"got '{value}'")
    if tel["enabled"] and tel["epochs"] <= 0:
        fail(f"{ctx}: telemetry enabled but sampled no epochs")
    if not tel["enabled"] and tel["telemetry_digest"] != "0x" + "0" * 16:
        fail(f"{ctx}: telemetry disabled but digest nonzero")


def check_fleet(fleet, ctx):
    """One fleet section (embedded `benches.fleet` or standalone)."""
    for key in ("vms", "threads", "vm_mib", "host_gib", "horizon_s",
                "epoch_s", "resizes", "p50_resize_ms", "p99_resize_ms",
                "footprint_gib_min", "peak_gib", "pool_peak_gib"):
        require(fleet, key, numbers.Real, ctx)
    for key in ("policy", "arrival", "candidate", "fleet_digest"):
        require(fleet, key, str, ctx)
    # Byte-identical VM outcomes across worker-thread counts is the
    # fleet engine's core contract; a run that broke it is not a result.
    if not require(fleet, "deterministic", bool, ctx):
        fail(f"{ctx}: VM digests differ between worker-thread counts")
    if fleet["vms"] < 2:
        fail(f"{ctx}: needs at least 2 VMs to mean anything")
    if fleet["resizes"] <= 0:
        fail(f"{ctx}: the policy issued no resizes")
    if fleet["p99_resize_ms"] < fleet["p50_resize_ms"]:
        fail(f"{ctx}: p99 resize latency below p50")
    admission = require(fleet, "admission", dict, ctx)
    for key in ("granted", "clipped", "rejected"):
        require(admission, key, numbers.Real, f"{ctx}.admission")
    if admission["granted"] <= 0:
        fail(f"{ctx}: admission control granted nothing")
    spike = require(fleet, "spike", dict, ctx)
    for key in ("vms", "mib", "time_to_reclaim_ms"):
        require(spike, key, numbers.Real, f"{ctx}.spike")
    for key in ("applied", "satisfied"):
        require(spike, key, bool, f"{ctx}.spike")
    # A fault-injected run may quarantine spiked VMs, in which case the
    # spike legitimately never satisfies; only clean runs must reclaim.
    fault_injected = bool(fleet.get("fault_plan"))
    if spike["vms"] > 0 and spike["applied"]:
        if not spike["satisfied"] and not fault_injected:
            fail(f"{ctx}: pressure spike never satisfied (time-to-reclaim "
                 f"SLO unmeasurable)")
        if spike["time_to_reclaim_ms"] < 0:
            fail(f"{ctx}: negative time-to-reclaim")
    check_fleet_telemetry(require(fleet, "telemetry", dict, ctx),
                          f"{ctx}.telemetry")
    # The fleet-wide huge-frame reclaim split.
    hctx = f"{ctx}.huge"
    huge = require(fleet, "huge", dict, ctx)
    require(huge, "mode", bool, hctx)
    for key in ("reclaim_untouched", "reclaim_2m", "reclaim_4k", "share"):
        require(huge, key, numbers.Real, hctx)
    if not 0.0 <= huge["share"] <= 1.0:
        fail(f"{hctx}: share {huge['share']} outside [0, 1]")


def check_huge_variant(variant, ctx):
    """One huge_frame churn variant (compaction off/on)."""
    require(variant, "compaction", bool, ctx)
    for key in ("frag_before", "frag_after", "compaction_blocks",
                "compaction_migrations", "reclaim_untouched", "reclaim_2m",
                "reclaim_4k", "share", "reclaimed_mib", "flush_entries_2m",
                "flush_entries_4k", "flush_entries_all4k", "flush_savings"):
        require(variant, key, numbers.Real, ctx)
    for key in ("frag_before", "frag_after", "share"):
        if not 0.0 <= variant[key] <= 1.0:
            fail(f"{ctx}.{key}: {variant[key]} outside [0, 1]")
    reclaimed = (variant["reclaim_untouched"] + variant["reclaim_2m"] +
                 variant["reclaim_4k"])
    if reclaimed <= 0:
        fail(f"{ctx}: shrink reclaimed no huge frames")


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


def check_bench(doc, min_epochs):
    """hyperalloc-bench-v7: the bench_runner document."""
    require(doc, "smoke", bool, "$")
    require(doc, "hardware_concurrency", numbers.Real, "$")
    require(doc, "ratio_pairs", numbers.Real, "$")
    benches = require(doc, "benches", dict, "$")

    batch = require(benches, "llfree_batch_alloc_free", dict, "benches")
    for key in ("batch", "ops", "speedup_vs_single"):
        require(batch, key, numbers.Real, "llfree_batch_alloc_free")
    if batch["ops"] <= 0:
        fail("llfree_batch_alloc_free: no work recorded")

    attribution = require(benches, "attribution", dict, "benches")
    # enabled=false is legal (HYPERALLOC_TRACE=0 build): the section
    # must exist and say so, nothing more to check.
    if require(attribution, "enabled", bool, "attribution"):
        require(attribution, "candidate", str, "attribution")
        require(attribution, "dropped_spans", numbers.Real, "attribution")
        if attribution["dropped_spans"] != 0:
            fail("attribution: span ring dropped spans; raise capacity")
        check_phase(require(attribution, "inflate", dict, "attribution"),
                    "attribution.inflate")
        check_phase(require(attribution, "deflate", dict, "attribution"),
                    "attribution.deflate")

    multivm = require(benches, "multivm", dict, "benches")
    for key in ("vms", "threads", "footprint_gib_min", "peak_gib",
                "spans_single", "spans_dropped"):
        require(multivm, key, numbers.Real, "multivm")
    if not require(multivm, "deterministic", bool, "multivm"):
        fail("multivm: per-VM series differ between thread counts")
    if multivm["vms"] < 2:
        fail("multivm: needs at least 2 VMs to mean anything")
    # spans_checked is false only in a HYPERALLOC_TRACE=0 build.
    if require(multivm, "spans_checked", bool, "multivm"):
        if multivm["spans_dropped"] != 0:
            fail("multivm: span ring dropped spans; raise capacity")
        if not require(multivm, "spans_deterministic", bool, "multivm"):
            fail("multivm: canonical span streams differ between "
                 "thread counts")

    check_fleet(require(benches, "fleet", dict, "benches"), "benches.fleet")
    span = require(benches, "fleet_span_check", dict, "benches")
    for key in ("spans", "resizes", "span_p99_ms", "engine_p99_ms"):
        require(span, key, numbers.Real, "fleet_span_check")
    require(span, "matched", bool, "fleet_span_check")
    # checked is false only in a HYPERALLOC_TRACE=0 build.
    if require(span, "checked", bool, "fleet_span_check"):
        if span["spans"] != span["resizes"]:
            fail(f"fleet_span_check: {span['spans']} request spans for "
                 f"{span['resizes']} engine resizes")
        if not span["matched"]:
            fail("fleet_span_check: span-derived p99 resize latency "
                 f"({span['span_p99_ms']}) disagrees with the engine's "
                 f"({span['engine_p99_ms']})")

    tel = require(benches, "telemetry", dict, "benches")
    enabled = require(tel, "enabled", bool, "telemetry")
    for key in ("epochs", "alerts", "telemetry_overhead_pct"):
        require(tel, key, numbers.Real, "telemetry")
    flight = require(tel, "flight", dict, "telemetry")
    for key in ("dumps", "ring_epochs"):
        require(flight, key, numbers.Real, "telemetry.flight")
    require(flight, "digest", str, "telemetry.flight")
    if enabled:
        # The digests must match across worker-thread counts — a
        # diverging stream means the pipeline leaked thread order.
        if not require(tel, "deterministic", bool, "telemetry"):
            fail("telemetry: stream digest differs between "
                 "worker-thread counts")
        if not require(flight, "deterministic", bool, "telemetry.flight"):
            fail("telemetry.flight: dump bytes differ between "
                 "worker-thread counts")
        if tel["epochs"] <= 0:
            fail("telemetry: enabled but sampled no epochs")
        # The runner's fault-plan probe must actually freeze a dump;
        # a recorder that never triggers is untested.
        if flight["dumps"] <= 0:
            fail("telemetry.flight: the quarantine probe froze no dump")
        if flight["ring_epochs"] < min_epochs:
            fail(f"telemetry.flight: ring covered {flight['ring_epochs']} "
                 f"epochs, need >= {min_epochs}")

    huge = require(benches, "huge_frame", dict, "benches")
    for key in ("memory_mib", "share", "compaction_migrations",
                "flush_savings"):
        require(huge, key, numbers.Real, "huge_frame")
    no_compaction = require(huge, "no_compaction", dict, "huge_frame")
    with_compaction = require(huge, "with_compaction", dict, "huge_frame")
    check_huge_variant(no_compaction, "huge_frame.no_compaction")
    check_huge_variant(with_compaction, "huge_frame.with_compaction")
    # The runner's own exit gates, mirrored: compaction must evacuate
    # blocks, lower the fragmentation score, and not reclaim less than
    # the uncompacted run. (perf_gate.py holds the share floor.)
    if with_compaction["compaction_blocks"] <= 0:
        fail("huge_frame.with_compaction: compaction evacuated no blocks")
    if with_compaction["frag_after"] >= with_compaction["frag_before"]:
        fail("huge_frame.with_compaction: compaction did not lower the "
             "fragmentation score")
    if with_compaction["reclaimed_mib"] < no_compaction["reclaimed_mib"]:
        fail("huge_frame: compaction reclaimed less than the uncompacted "
             "run")
    probe = require(huge, "balloon_probe", dict, "huge_frame")
    for key in ("demotions_2m", "flush_savings"):
        require(probe, key, numbers.Real, "huge_frame.balloon_probe")


def main():
    min_epochs = 0
    paths = []
    for arg in sys.argv[1:]:
        if arg.startswith("--min-epochs="):
            min_epochs = int(arg[len("--min-epochs="):])
        else:
            paths.append(arg)
    if len(paths) != 1:
        fail("usage: check_bench_json.py [--min-epochs=N] BENCH.json")
    try:
        with open(paths[0], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {paths[0]}: {e}")

    schema = require(doc, "schema", str, "$")
    if schema == "hyperalloc-bench-v7":
        check_bench(doc, min_epochs)
    elif schema == "hyperalloc-bench-fleet-v1":
        fleet = require(doc, "fleet", dict, "$")
        check_fleet(fleet, "fleet")
        require(fleet, "wall_ms", numbers.Real, "fleet")
    elif schema == "hyperalloc-bench-faults-v1":
        check_faults(doc)
    elif schema == "hyperalloc-flight-v2":
        check_flight(doc, min_epochs)
        schema += f", {len(doc['epochs'])} ring epochs"
    else:
        fail(f"unknown schema '{schema}'")
    print(f"check_bench_json: OK ({paths[0]}, {schema})")


if __name__ == "__main__":
    main()

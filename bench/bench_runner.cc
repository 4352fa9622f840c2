// Deterministic bench gate. Every value it emits is a virtual-time
// result, an op count or a digest — identical on any host — except two
// in-process wall-clock ratios, each the median over kRatioPairs
// interleaved pairs: the batched/single LLFree speedup and the fleet
// telemetry overhead. Stages: the batch ratio, the span-attribution
// closure of a HyperAlloc resize, the compile fleet (1 vs N threads),
// the policy-driven fleet at 1024 VMs (128 in smoke) with its telemetry
// and flight-recorder probes, and the huge-frame churn+shrink study.
// Emits one `hyperalloc-bench-v7` document (default BENCH_BASELINE.json)
// and is its only judge: it exits 1, naming every failed check, when a
// gate fails. scripts/perf_gate.py compares it exactly against the
// committed baseline. Real-thread micro-benchmarks live in bench_llfree
// (Google Benchmark).
//
//   --smoke          small sizes for CI (seconds, not minutes)
//   --out=PATH       output path (default BENCH_BASELINE.json)
//   --threads=N      host threads for the multi-VM and fleet stages
//                    (default 4; the determinism checks always also run
//                    single-threaded and compare series/digests)
//   --trace-out=PATH writes the attribution run's span tree in the
//                    shared trace artifact layout (bench/trace_io.h):
//                    Perfetto JSON (PATH itself when it ends in .json),
//                    PATH.spans.csv and PATH.prom
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/fleet_bench.h"
#include "bench/trace_io.h"
#include "src/core/hyperalloc.h"
#include "src/guest/compaction.h"
#include "src/llfree/llfree.h"
#include "src/trace/span.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::bench {
namespace {

using Clock = std::chrono::steady_clock;

// Interleaved pairs behind each wall-clock ratio. Odd, so the median is
// one measured pair.
constexpr int kRatioPairs = 25;
// Frames per GetBatch/PutBatch train in the batch-ratio stage.
constexpr unsigned kBatch = 512;
// The two ratio gates (mirrored by scripts/perf_gate.py FLOORS/CEILINGS).
constexpr double kMinBatchSpeedup = 2.0;
constexpr double kMaxTelemetryOverheadPct = 5.0;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Median over kRatioPairs pairs of a() / b(), where each call runs one
// sample and returns its cost. The side that runs first alternates, so
// a host that drifts (clock frequency, cache state) biases neither.
template <typename A, typename B>
double MedianRatio(A&& a, B&& b) {
  std::vector<double> ratios;
  for (int pair = 0; pair < kRatioPairs; ++pair) {
    double cost_a = 0.0;
    double cost_b = 0.0;
    if (pair % 2 == 0) {
      cost_a = a();
      cost_b = b();
    } else {
      cost_b = b();
      cost_a = a();
    }
    ratios.push_back(cost_b > 0.0 ? cost_a / cost_b : 0.0);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kRatioPairs / 2,
                   ratios.end());
  return ratios[kRatioPairs / 2];
}

// LLFree::Validate over every zone of `vm`; run at quiescence after a
// stage, so a stage that corrupts allocator state fails even when its
// figures look right.
bool ValidateZones(guest::GuestVm* vm) {
  for (guest::Zone& zone : vm->zones()) {
    if (zone.llfree != nullptr && !zone.llfree->Validate()) {
      return false;
    }
  }
  return true;
}

// Batched vs single-frame hot path, same allocator shape: order-0 trains
// of kBatch frames claimed word-at-a-time via GetBatch/PutBatch against
// the same volume of per-frame Get/Put transactions, each on its own
// allocator. speedup_vs_single is a ratio gate: both sides run
// in-process on the same host, so machine speed cancels.
struct BatchBench {
  uint64_t ops = 0;  // batched-side ops over all pairs
  double speedup_vs_single = 0.0;
  bool valid = false;
};

BatchBench BenchLLFreeBatch(bool smoke) {
  const uint64_t frames = 1ull << (smoke ? 16 : 20);
  const int rounds = (smoke ? 200 : 4000) / kRatioPairs;
  llfree::Config config;
  config.cores = 4;
  llfree::SharedState batched_state(frames, config);
  llfree::LLFree batched(&batched_state);
  llfree::SharedState single_state(frames, config);
  llfree::LLFree single(&single_state);

  BatchBench result;
  std::vector<FrameId> held;
  held.reserve(kBatch);
  // Each sample returns its wall ms per op.
  auto run_batched = [&] {
    uint64_t ops = 0;
    const Clock::time_point start = Clock::now();
    for (int round = 0; round < rounds; ++round) {
      const unsigned core = static_cast<unsigned>(round % 4);
      const unsigned got =
          batched.GetBatch(core, 0, kBatch, AllocType::kMovable, &held);
      batched.PutBatch(held, 0);
      ops += 2 * got;
      held.clear();
    }
    result.ops += ops;
    return MsSince(start) / static_cast<double>(std::max<uint64_t>(ops, 1));
  };
  auto run_single = [&] {
    uint64_t ops = 0;
    const Clock::time_point start = Clock::now();
    for (int round = 0; round < rounds; ++round) {
      const unsigned core = static_cast<unsigned>(round % 4);
      for (unsigned i = 0; i < kBatch; ++i) {
        const Result<FrameId> r = single.Get(core, 0, AllocType::kMovable);
        if (!r.ok()) {
          break;
        }
        held.push_back(*r);
      }
      for (const FrameId frame : held) {
        single.Put(frame, 0);
      }
      ops += 2 * held.size();
      held.clear();
    }
    return MsSince(start) / static_cast<double>(std::max<uint64_t>(ops, 1));
  };
  result.speedup_vs_single = MedianRatio(run_single, run_batched);
  result.valid = batched.Validate() && single.Validate();
  return result;
}

// ----------------------------------------------------------------------
// Span attribution: one HyperAlloc shrink+grow cycle with the span
// tracer on. The closure property under test: every cost-model charge of
// a request lands in exactly one span of that request's trace, so the
// per-trace sum of charge_ns equals the root span's virtual duration.
// ----------------------------------------------------------------------

struct PhaseAttribution {
  bool found = false;          // the request root span was located
  uint64_t total_vns = 0;      // root span virtual duration
  uint64_t charged_ns = 0;     // sum of charge_ns over the trace
  bool charge_closed = false;  // charged_ns == total_vns
  uint64_t layer_ns[trace::kNumLayers] = {};
};

struct AttributionBench {
  bool enabled = false;  // false when built with HYPERALLOC_TRACE=0
  PhaseAttribution inflate;  // shrink (hard reclamation)
  PhaseAttribution deflate;  // grow (return)
  uint64_t dropped_spans = 0;
  bool valid = true;
  std::vector<trace::SpanRecord> spans;  // both phases, for --trace-out
};

#if HYPERALLOC_TRACE

PhaseAttribution AttributePhase(const std::vector<trace::SpanRecord>& spans,
                                const char* root_name) {
  PhaseAttribution phase;
  const trace::SpanRecord* root = nullptr;
  for (const trace::SpanRecord& span : spans) {
    if (span.layer == trace::Layer::kRequest &&
        std::strcmp(span.name, root_name) == 0) {
      root = &span;
      break;
    }
  }
  if (root == nullptr) {
    return phase;
  }
  phase.found = true;
  phase.total_vns = root->virtual_ns();
  for (const trace::SpanRecord& span : spans) {
    if (span.trace_id != root->trace_id) {
      continue;
    }
    phase.charged_ns += span.charge_ns;
    phase.layer_ns[static_cast<unsigned>(span.layer)] += span.charge_ns;
  }
  phase.charge_closed = phase.charged_ns == phase.total_vns;
  return phase;
}

// One cycle: prepare 6 GiB of touched-then-freed guest memory, shrink
// the limit to 2 GiB (inflate), grow it back (deflate).
AttributionBench BenchAttribution() {
  AttributionBench result;
  result.enabled = true;
  trace::SpanTracer& spans = trace::SpanTracer::Global();
  spans.SetCapacity(size_t{1} << 18);
  const uint64_t dropped_before = spans.dropped_spans();
  spans.SetEnabled(true);

  SetupOptions options;
  options.memory_bytes = 8 * kGiB;
  options.host_bytes = 16 * kGiB;
  Setup setup = MakeSetup(Candidate::kHyperAlloc, options);
  workloads::MemoryPool pool(setup.vm.get());
  const uint64_t prep = pool.AllocRegion(6 * kGiB, /*thp_fraction=*/0.95, 0);
  pool.FreeRegion(prep, 0);
  setup.vm->PurgeAllocatorCaches();
  (void)spans.Drain();  // prep-phase install traces are not under test

  setup.SetLimit(2 * kGiB);
  std::vector<trace::SpanRecord> shrink_spans = spans.Drain();
  result.inflate = AttributePhase(shrink_spans, "request.inflate");
  result.spans = std::move(shrink_spans);

  setup.SetLimit(8 * kGiB);
  const std::vector<trace::SpanRecord> grow_spans = spans.Drain();
  result.deflate = AttributePhase(grow_spans, "request.deflate");
  result.spans.insert(result.spans.end(), grow_spans.begin(),
                      grow_spans.end());
  spans.SetEnabled(false);
  result.dropped_spans = spans.dropped_spans() - dropped_before;
  result.valid = ValidateZones(setup.vm.get());
  return result;
}

// ----------------------------------------------------------------------
// Span determinism across thread counts: canonicalized per-VM span
// streams (virtual-time fields only) must be identical between the
// 1-thread and N-thread multi-VM runs.
// ----------------------------------------------------------------------

std::vector<std::vector<trace::SpanRecord>> CanonicalPerVmStreams(
    std::vector<trace::SpanRecord> spans, uint64_t vms) {
  std::vector<std::vector<trace::SpanRecord>> streams(vms);
  // seq is assigned by one global counter at emission; each VM's spans
  // are emitted in program order on whichever thread runs it, so sorting
  // a VM's spans by seq restores that VM's deterministic program order.
  std::sort(spans.begin(), spans.end(),
            [](const trace::SpanRecord& a, const trace::SpanRecord& b) {
              return a.seq < b.seq;
            });
  for (const trace::SpanRecord& span : spans) {
    if (span.vm < vms) {
      streams[span.vm].push_back(span);
    }
  }
  return streams;
}

bool SpanStreamsEqual(const std::vector<trace::SpanRecord>& a,
                      const std::vector<trace::SpanRecord>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].layer != b[i].layer || std::strcmp(a[i].name, b[i].name) != 0 ||
        a[i].begin_vns != b[i].begin_vns || a[i].end_vns != b[i].end_vns ||
        a[i].charge_ns != b[i].charge_ns || a[i].frames != b[i].frames) {
      return false;
    }
  }
  return true;
}

#else  // !HYPERALLOC_TRACE

AttributionBench BenchAttribution() { return {}; }

#endif  // HYPERALLOC_TRACE

CompileFleetOptions MultiVmBenchConfig(bool smoke, unsigned threads) {
  CompileFleetOptions config;
  config.vms = 8;
  config.threads = threads;
  config.candidate = Candidate::kHyperAlloc;
  config.offset = true;
  config.builds_per_vm = 1;
  config.gap = sim::kMin;
  config.offset_step = 30 * sim::kSec;
  config.vm_bytes = kGiB;
  config.host_slack_bytes = 2 * kGiB;
  config.compile.seed = 100;
  config.compile.workers = 4;
  config.compile.compile_units = smoke ? 12 : 120;
  config.compile.link_jobs = 2;
  config.compile.max_parallel_links = 1;
  config.compile.unit_ws_min = 8 * kMiB;
  config.compile.unit_ws_max = 32 * kMiB;
  config.compile.link_ws_min = 64 * kMiB;
  config.compile.link_ws_max = 96 * kMiB;
  config.compile.cache_read_per_unit = kMiB;
  config.compile.artifact_per_unit = kMiB;
  config.compile.slab_per_job = kMiB;
  return config;
}

struct MultiVmBench {
  uint64_t vms = 0;
  unsigned threads = 0;
  bool deterministic = false;
  double footprint_gib_min = 0.0;
  double peak_gib = 0.0;
  // Span-stream determinism guard (satellite of the RSS-series one):
  // checked whenever spans are compiled in; a dropped span fails it.
  bool spans_checked = false;
  bool spans_deterministic = false;
  uint64_t spans_single = 0;
  uint64_t spans_dropped = 0;
};

MultiVmBench BenchMultiVm(bool smoke, unsigned threads) {
  CompileFleetOptions config = MultiVmBenchConfig(smoke, 1);
#if HYPERALLOC_TRACE
  trace::SpanTracer& spans = trace::SpanTracer::Global();
  spans.SetCapacity(size_t{1} << 19);
  const uint64_t dropped_before = spans.dropped_spans();
  (void)spans.Drain();
  spans.SetEnabled(true);
#endif
  const fleet::FleetResult single = RunCompileFleet(config);
#if HYPERALLOC_TRACE
  const std::vector<trace::SpanRecord> single_spans = spans.Drain();
#endif
  config.threads = threads;
  const fleet::FleetResult parallel = RunCompileFleet(config);
#if HYPERALLOC_TRACE
  const std::vector<trace::SpanRecord> parallel_spans = spans.Drain();
  spans.SetEnabled(false);
#endif

  MultiVmBench result;
  result.vms = config.vms;
  result.threads = threads;
  result.footprint_gib_min = single.footprint_gib_min;
  result.peak_gib = single.peak_gib;
  result.deterministic =
      single.per_vm_rss.size() == parallel.per_vm_rss.size() &&
      single.fleet_digest == parallel.fleet_digest &&
      single.vm_digests == parallel.vm_digests;
  for (size_t i = 0; result.deterministic && i < single.per_vm_rss.size();
       ++i) {
    result.deterministic =
        fleet::SeriesEqual(single.per_vm_rss[i], parallel.per_vm_rss[i]);
  }
#if HYPERALLOC_TRACE
  result.spans_checked = true;
  result.spans_single = single_spans.size();
  result.spans_dropped = spans.dropped_spans() - dropped_before;
  const auto a = CanonicalPerVmStreams(single_spans, config.vms);
  const auto b = CanonicalPerVmStreams(parallel_spans, config.vms);
  result.spans_deterministic = result.spans_dropped == 0;
  for (uint64_t i = 0; result.spans_deterministic && i < config.vms; ++i) {
    result.spans_deterministic = SpanStreamsEqual(a[i], b[i]);
  }
#endif
  return result;
}

// ----------------------------------------------------------------------
// Fleet scenario: 1024 (128 in smoke) 64 MiB VMs on a 1.6x- (1.5x-)
// overcommitted host, bursty demand, proportional-share policy, with a
// pressure spike probing the time-to-reclaim SLO. Determinism means
// byte-identical per-VM outcome digests between 1 and N worker threads.
// ----------------------------------------------------------------------

struct FleetBench {
  FleetScenarioOptions options;
  fleet::FleetResult result;     // the N-thread run (reported)
  bool deterministic = false;
  // Span cross-check: every resize the engine records must appear as a
  // request-layer span of a small traced run, and the latencies
  // re-derived from those spans must reproduce the engine's p99 exactly
  // (same nearest-rank method, same virtual instants).
  bool span_checked = false;
  bool span_matched = false;
  uint64_t span_count = 0;
  uint64_t span_resizes = 0;
  double span_p99_ms = 0.0;
  double engine_p99_ms = 0.0;
  // Telemetry: the pipeline's stream digest must match the 1-thread
  // reference (telemetry_deterministic); its wall cost is a ratio gate
  // against the same scenario with sampling off.
  bool telemetry_deterministic = false;
  double telemetry_overhead_pct = 0.0;
  // Flight-recorder probe: a fault plan aggressive enough to quarantine
  // VMs mid-run must freeze at least one schema-valid dump, and the dump
  // bytes must be identical across thread counts.
  uint64_t flight_dumps = 0;
  uint64_t flight_ring_epochs = 0;
  uint64_t flight_digest = 0;
  bool flight_deterministic = false;
};

FleetBench BenchFleet(bool smoke, unsigned threads) {
  FleetBench bench;
  bench.options.vms = smoke ? 128 : 1024;
  bench.options.threads = threads;
  // Overcommit is capped where the time-to-reclaim SLO stays feasible:
  // above ~1.8x the fleet's summed want (demand + growth headroom)
  // permanently exceeds usable capacity, proportional-share scales every
  // VM below its full demand, and no amount of reclaim can ever satisfy
  // a spiked VM. The smoke fleet is small enough that the 32-VM spike is
  // a quarter of it, so it gets a little more slack still.
  bench.options.overcommit = smoke ? 1.5 : 1.6;

  FleetScenarioOptions single = bench.options;
  single.threads = 1;
  const fleet::FleetResult reference = RunFleetScenario(single);
  bench.result = RunFleetScenario(bench.options);
  bench.deterministic =
      reference.fleet_digest == bench.result.fleet_digest &&
      reference.vm_digests == bench.result.vm_digests;
  bench.telemetry_deterministic =
      reference.telemetry.telemetry_digest ==
          bench.result.telemetry.telemetry_digest &&
      reference.telemetry.flight_digest ==
          bench.result.telemetry.flight_digest;
  // Telemetry overhead: the identical scenario with the pipeline off.
  FleetScenarioOptions off = bench.options;
  off.telemetry.enabled = false;
  bench.telemetry_overhead_pct =
      (MedianRatio([&] { return RunFleetScenario(bench.options).wall_ms; },
                   [&] { return RunFleetScenario(off).wall_ms; }) -
       1.0) *
      100.0;

  // Flight-recorder probe: permanent unmap faults aggressive enough to
  // push VMs over the frame-quarantine limit mid-run. Small fleet — the
  // point is the dump, not throughput.
  FleetScenarioOptions flight = bench.options;
  flight.vms = 128;
  // Pinned regardless of --smoke: enough overcommit that the policy
  // keeps deflating (each deflate is an unmap, i.e. a fault site), so
  // the permanent-fault count crosses the VM-quarantine limit.
  flight.overcommit = 1.6;
  flight.fault_plan.seed = 42;
  std::string plan_error;
  HA_CHECK(fault::Plan::Parse("ept_unmap:0.6!", &flight.fault_plan,
                              &plan_error));
  FleetScenarioOptions flight_single = flight;
  flight_single.threads = 1;
  const fleet::FleetResult flight_ref = RunFleetScenario(flight_single);
  const fleet::FleetResult flight_result = RunFleetScenario(flight);
  bench.flight_dumps = flight_result.telemetry.flight_dumps;
  bench.flight_digest = flight_result.telemetry.flight_digest;
  bench.flight_ring_epochs =
      flight_result.telemetry.dumps.empty()
          ? 0
          : flight_result.telemetry.dumps.front().ring_epochs;
  bench.flight_deterministic =
      flight_ref.telemetry.flight_digest ==
          flight_result.telemetry.flight_digest &&
      flight_ref.telemetry.telemetry_digest ==
          flight_result.telemetry.telemetry_digest;

#if HYPERALLOC_TRACE
  // Traced mini-fleet for the span pipeline cross-check. Every resize
  // the control loop issues opens a request-layer root span on the VM's
  // virtual clock; its virtual duration is exactly the engine's
  // (completed - issued). The only request spans NOT in the engine's
  // records are the t=0 initial-limit shrinks — filtered by begin_vns.
  FleetScenarioOptions traced = bench.options;
  traced.vms = 32;
  traced.threads = 1;
  traced.spike.vms = 8;
  trace::SpanTracer& spans = trace::SpanTracer::Global();
  spans.SetCapacity(size_t{1} << 19);
  (void)spans.Drain();
  spans.SetEnabled(true);
  const fleet::FleetResult traced_result = RunFleetScenario(traced);
  const std::vector<trace::SpanRecord> traced_spans = spans.Drain();
  spans.SetEnabled(false);
  std::vector<double> span_ms;
  for (const trace::SpanRecord& span : traced_spans) {
    if (span.layer == trace::Layer::kRequest && span.begin_vns > 0) {
      span_ms.push_back(static_cast<double>(span.virtual_ns()) / 1e6);
    }
  }
  bench.span_checked = true;
  bench.span_count = span_ms.size();
  bench.span_resizes = traced_result.slo.resizes;
  bench.span_p99_ms = fleet::PercentileMs(span_ms, 0.99);
  bench.engine_p99_ms = traced_result.slo.p99_resize_ms;
  bench.span_matched =
      bench.span_count == bench.span_resizes &&
      std::abs(bench.span_p99_ms - bench.engine_p99_ms) < 1e-9;
#endif
  return bench;
}

// ----------------------------------------------------------------------
// Huge-frame fast path (§4.14): churn a HyperAlloc VM into a splintered
// state (straggler allocations pinning half the areas), then shrink the
// limit. The no-compaction variant can only hard-reclaim the areas the
// churn never splintered; the compaction variant first migrates the
// stragglers out (Compactor LLFree pass) and reclaims the re-formed
// huge frames too. Both report the monitor's reclaim-share split and
// the EPT's flush-entry savings versus all-4K invalidation. A 4 KiB
// balloon probe on THP-backed memory provides the contrast numbers
// (2M-entry demotions, no flush savings).
// ----------------------------------------------------------------------

struct HugeFrameVariant {
  bool compaction = false;
  double frag_before = 0.0;  // GuestVm::FragmentationScore() after churn
  double frag_after = 0.0;   // after the compaction pass (== before when off)
  uint64_t compaction_blocks = 0;
  uint64_t compaction_migrations = 0;
  uint64_t reclaim_untouched = 0;
  uint64_t reclaim_2m = 0;
  uint64_t reclaim_4k = 0;
  double share = 0.0;
  double reclaimed_mib = 0.0;
  uint64_t flush_entries_2m = 0;
  uint64_t flush_entries_4k = 0;
  uint64_t flush_entries_all4k = 0;  // what per-4K flushing would have cost
  double flush_savings = 0.0;        // 1 - actual entries / all-4K entries
  bool valid = false;
};

struct HugeFrameBench {
  uint64_t memory_mib = 0;
  HugeFrameVariant no_compaction;
  HugeFrameVariant with_compaction;
  // Headline (gated) metrics: the worse share of the two variants and
  // the compaction variant's migration/flush numbers.
  double share = 0.0;
  uint64_t compaction_migrations = 0;
  double flush_savings = 0.0;
  // 4 KiB balloon contrast probe: reclaiming THP-backed memory page by
  // page demotes 2M entries and invalidates per-4K.
  uint64_t balloon_demotions_2m = 0;
  double balloon_flush_savings = 0.0;
  bool valid = false;
};

HugeFrameVariant RunHugeFrameVariant(bool smoke, bool compact) {
  HugeFrameVariant variant;
  variant.compaction = compact;

  SetupOptions options;
  options.memory_bytes = smoke ? 2 * kGiB : 4 * kGiB;
  options.host_bytes = 2 * options.memory_bytes;
  Setup setup = MakeSetup(Candidate::kHyperAlloc, options);
  workloads::MemoryPool pool(setup.vm.get());

  // Churn half the memory with 64-frame regions: allocate them ALL
  // first (they pack areas densely), then free seven of every eight.
  // Interleaving alloc/free would not fragment — the allocator reuses
  // just-freed frames — but the two-pass order leaves every churned
  // area holding one 64-frame straggler run: under the compaction
  // candidate threshold, yet enough to block order-9 reclaim.
  const uint64_t region_bytes = 64 * kFrameSize;
  const uint64_t regions = options.memory_bytes / 2 / region_bytes;
  std::vector<uint64_t> ids;
  ids.reserve(regions);
  for (uint64_t i = 0; i < regions; ++i) {
    const uint64_t id = pool.AllocRegion(region_bytes, /*thp_fraction=*/0.0,
                                         /*core=*/0);
    if (id == 0) {
      break;
    }
    ids.push_back(id);
  }
  for (uint64_t i = 0; i < ids.size(); ++i) {
    if (i % 8 != 0) {
      pool.FreeRegion(ids[i], 0);
    }
  }
  setup.vm->PurgeAllocatorCaches();
  variant.frag_before = setup.vm->FragmentationScore();

  if (compact) {
    guest::Compactor compactor(setup.vm.get());
    compactor.CompactPass(~0ull);
    variant.compaction_blocks = compactor.blocks_compacted();
    variant.compaction_migrations = compactor.frames_migrated();
  }
  variant.frag_after = setup.vm->FragmentationScore();

  // Hard reclamation to a quarter of memory. The kept stragglers pin
  // ~1/16 of memory, so the target is feasible — but only the compacted
  // variant has enough whole free huge frames to actually reach it.
  setup.SetLimit(options.memory_bytes / 4);

  const auto* monitor =
      static_cast<const core::HyperAllocMonitor*>(setup.deflator.get());
  const hv::HugeReclaimStats reclaim = monitor->huge_reclaim();
  variant.reclaim_untouched = reclaim.untouched;
  variant.reclaim_2m = reclaim.via_2m;
  variant.reclaim_4k = reclaim.via_4k;
  variant.share = reclaim.Share();
  variant.reclaimed_mib =
      static_cast<double>(monitor->hard_reclaimed_bytes()) /
      static_cast<double>(kMiB);
  const hv::Ept& ept = setup.vm->ept();
  variant.flush_entries_2m = ept.entries_invalidated_2m();
  variant.flush_entries_4k = ept.entries_invalidated_4k();
  variant.flush_entries_all4k = ept.tlb_flushed_frames();
  if (variant.flush_entries_all4k > 0) {
    variant.flush_savings =
        1.0 - static_cast<double>(variant.flush_entries_2m +
                                  variant.flush_entries_4k) /
                  static_cast<double>(variant.flush_entries_all4k);
  }
  variant.valid = ValidateZones(setup.vm.get());
  return variant;
}

HugeFrameBench BenchHugeFrame(bool smoke) {
  HugeFrameBench bench;
  bench.memory_mib = (smoke ? 2 * kGiB : 4 * kGiB) / kMiB;
  bench.no_compaction = RunHugeFrameVariant(smoke, false);
  bench.with_compaction = RunHugeFrameVariant(smoke, true);
  bench.share =
      std::min(bench.no_compaction.share, bench.with_compaction.share);
  bench.compaction_migrations = bench.with_compaction.compaction_migrations;
  bench.flush_savings = bench.with_compaction.flush_savings;

  // Contrast probe: 4 KiB ballooning of THP-backed-then-freed memory.
  // Every reclaimed page punches a hole in a live 2 MiB entry — the
  // first hole demotes the entry, the rest invalidate per-4K.
  SetupOptions options;
  options.memory_bytes = kGiB;
  options.host_bytes = 2 * kGiB;
  Setup setup = MakeSetup(Candidate::kBalloon, options);
  workloads::MemoryPool pool(setup.vm.get());
  const uint64_t id =
      pool.AllocRegion(options.memory_bytes / 2, /*thp_fraction=*/1.0, 0);
  pool.FreeRegion(id, 0);
  setup.vm->PurgeAllocatorCaches();
  setup.SetLimit(options.memory_bytes / 4);
  const hv::Ept& ept = setup.vm->ept();
  bench.balloon_demotions_2m = ept.demotions_2m();
  if (ept.tlb_flushed_frames() > 0) {
    bench.balloon_flush_savings =
        1.0 - static_cast<double>(ept.entries_invalidated_2m() +
                                  ept.entries_invalidated_4k()) /
                  static_cast<double>(ept.tlb_flushed_frames());
  }
  bench.valid = bench.no_compaction.valid && bench.with_compaction.valid &&
                ValidateZones(setup.vm.get());
  return bench;
}

std::string Num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

std::string Num(uint64_t value) {
  return std::to_string(value);
}

std::string Bool(bool value) { return value ? "true" : "false"; }

// Serializes one attribution phase, including per-layer ns + share of
// the root's virtual time (only layers that received charges).
std::string PhaseJson(const PhaseAttribution& phase) {
  std::string json;
  json += "{\n";
  json += "        \"found\": " + Bool(phase.found) + ",\n";
  json += "        \"total_vns\": " + Num(phase.total_vns) + ",\n";
  json += "        \"charged_ns\": " + Num(phase.charged_ns) + ",\n";
  json += "        \"charge_closed\": " + Bool(phase.charge_closed) + ",\n";
  json += "        \"layers\": {";
  bool first = true;
  for (unsigned layer = 0; layer < trace::kNumLayers; ++layer) {
    if (phase.layer_ns[layer] == 0) {
      continue;
    }
    const double share =
        phase.total_vns > 0
            ? static_cast<double>(phase.layer_ns[layer]) /
                  static_cast<double>(phase.total_vns)
            : 0.0;
    json += std::string(first ? "" : ",") + "\n          \"" +
            trace::Name(static_cast<trace::Layer>(layer)) +
            "\": {\"ns\": " + Num(phase.layer_ns[layer]) +
            ", \"share\": " + Num(share) + "}";
    first = false;
  }
  json += "\n        }\n      }";
  return json;
}

std::string HugeVariantJson(const HugeFrameVariant& variant) {
  std::string json;
  json += "{\n";
  json += "        \"compaction\": " + Bool(variant.compaction) + ",\n";
  json += "        \"frag_before\": " + Num(variant.frag_before) + ",\n";
  json += "        \"frag_after\": " + Num(variant.frag_after) + ",\n";
  json += "        \"compaction_blocks\": " + Num(variant.compaction_blocks) +
          ",\n";
  json += "        \"compaction_migrations\": " +
          Num(variant.compaction_migrations) + ",\n";
  json += "        \"reclaim_untouched\": " + Num(variant.reclaim_untouched) +
          ",\n";
  json += "        \"reclaim_2m\": " + Num(variant.reclaim_2m) + ",\n";
  json += "        \"reclaim_4k\": " + Num(variant.reclaim_4k) + ",\n";
  json += "        \"share\": " + Num(variant.share) + ",\n";
  json += "        \"reclaimed_mib\": " + Num(variant.reclaimed_mib) + ",\n";
  json += "        \"flush_entries_2m\": " + Num(variant.flush_entries_2m) +
          ",\n";
  json += "        \"flush_entries_4k\": " + Num(variant.flush_entries_4k) +
          ",\n";
  json += "        \"flush_entries_all4k\": " +
          Num(variant.flush_entries_all4k) + ",\n";
  json += "        \"flush_savings\": " + Num(variant.flush_savings) + "\n";
  json += "      }";
  return json;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_runner [--smoke] [--out=PATH] [--threads=N] "
               "[--trace-out=PATH | --trace-out PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_BASELINE.json";
  unsigned threads = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.substr(0, 6) == "--out=") {
      out = arg.substr(6);
    } else if (arg.substr(0, 10) == "--threads=") {
      if (!ParseThreads(arg.substr(10), &threads)) {
        return Usage();
      }
    } else if (arg == "--trace-out" && i + 1 < argc) {
      ++i;  // the path; TraceOutPath reads both forms
    } else if (arg.substr(0, 12) != "--trace-out=") {
      return Usage();
    }
  }
  const std::string trace_out = TraceOutPath(argc, argv);
  const unsigned hw = std::thread::hardware_concurrency();

  std::fprintf(stderr, "[1/5] llfree_batch_alloc_free (batch %u, %d "
                       "pairs)...\n",
               kBatch, kRatioPairs);
  const BatchBench batch = BenchLLFreeBatch(smoke);

  std::fprintf(stderr, "[2/5] attribution (HyperAlloc shrink+grow)...\n");
  const AttributionBench attribution = BenchAttribution();

  std::fprintf(stderr, "[3/5] multivm (8 VMs, 1 vs %u threads)...\n",
               threads);
  const MultiVmBench multivm = BenchMultiVm(smoke, threads);

  std::fprintf(stderr, "[4/5] fleet (%s VMs, 1 vs %u threads, %d telemetry "
                       "on/off pairs + flight probe)...\n",
               smoke ? "128" : "1024", threads, kRatioPairs);
  const FleetBench fleet_bench = BenchFleet(smoke, threads);

  std::fprintf(stderr, "[5/5] huge_frame (churn + shrink, compaction "
                       "off/on + balloon probe)...\n");
  const HugeFrameBench huge_frame = BenchHugeFrame(smoke);

  if (!trace_out.empty()) {
    WriteTraceOut(trace_out, attribution.spans);
  }

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"hyperalloc-bench-v7\",\n";
  json += "  \"smoke\": " + Bool(smoke) + ",\n";
  json += "  \"hardware_concurrency\": " + Num(uint64_t{hw}) + ",\n";
  json += "  \"ratio_pairs\": " + Num(uint64_t{kRatioPairs}) + ",\n";
  json += "  \"benches\": {\n";
  json += "    \"llfree_batch_alloc_free\": {\n";
  json += "      \"batch\": " + Num(uint64_t{kBatch}) + ",\n";
  json += "      \"ops\": " + Num(batch.ops) + ",\n";
  json += "      \"speedup_vs_single\": " + Num(batch.speedup_vs_single) +
          "\n";
  json += "    },\n";
  json += "    \"attribution\": {\n";
  json += "      \"enabled\": " + Bool(attribution.enabled) + ",\n";
  if (attribution.enabled) {
    json += "      \"candidate\": \"HyperAlloc\",\n";
    json += "      \"dropped_spans\": " + Num(attribution.dropped_spans) +
            ",\n";
    json += "      \"inflate\": " + PhaseJson(attribution.inflate) + ",\n";
    json += "      \"deflate\": " + PhaseJson(attribution.deflate) + "\n";
  } else {
    json += "      \"note\": \"built with HYPERALLOC_TRACE=0\"\n";
  }
  json += "    },\n";
  json += "    \"multivm\": {\n";
  json += "      \"vms\": " + Num(multivm.vms) + ",\n";
  json += "      \"threads\": " + Num(uint64_t{multivm.threads}) + ",\n";
  json += "      \"deterministic\": " + Bool(multivm.deterministic) + ",\n";
  json += "      \"spans_checked\": " + Bool(multivm.spans_checked) + ",\n";
  json += "      \"spans_deterministic\": " +
          Bool(multivm.spans_deterministic) + ",\n";
  json += "      \"spans_single\": " + Num(multivm.spans_single) + ",\n";
  json += "      \"spans_dropped\": " + Num(multivm.spans_dropped) + ",\n";
  json += "      \"footprint_gib_min\": " + Num(multivm.footprint_gib_min) +
          ",\n";
  json += "      \"peak_gib\": " + Num(multivm.peak_gib) + "\n";
  json += "    },\n";
  json += "    \"fleet\": " +
          FleetJson(fleet_bench.options, fleet_bench.result,
                    fleet_bench.deterministic, 6, /*wall_ms=*/false) +
          ",\n";
  json += "    \"fleet_span_check\": {\n";
  json += "      \"checked\": " + Bool(fleet_bench.span_checked) + ",\n";
  json += "      \"matched\": " + Bool(fleet_bench.span_matched) + ",\n";
  json += "      \"spans\": " + Num(fleet_bench.span_count) + ",\n";
  json += "      \"resizes\": " + Num(fleet_bench.span_resizes) + ",\n";
  json += "      \"span_p99_ms\": " + Num(fleet_bench.span_p99_ms) + ",\n";
  json += "      \"engine_p99_ms\": " + Num(fleet_bench.engine_p99_ms) + "\n";
  json += "    },\n";
  char flight_digest[32];
  std::snprintf(flight_digest, sizeof(flight_digest), "0x%016" PRIx64,
                fleet_bench.flight_digest);
  json += "    \"telemetry\": {\n";
  json += "      \"enabled\": " +
          Bool(fleet_bench.result.telemetry.enabled) + ",\n";
  json += "      \"epochs\": " + Num(fleet_bench.result.telemetry.epochs) +
          ",\n";
  json += "      \"alerts\": " + Num(fleet_bench.result.telemetry.alerts) +
          ",\n";
  json += "      \"telemetry_overhead_pct\": " +
          Num(fleet_bench.telemetry_overhead_pct) + ",\n";
  json += "      \"deterministic\": " +
          Bool(fleet_bench.telemetry_deterministic) + ",\n";
  json += "      \"flight\": {\"dumps\": " + Num(fleet_bench.flight_dumps) +
          ", \"ring_epochs\": " + Num(fleet_bench.flight_ring_epochs) +
          ", \"digest\": \"" + flight_digest + "\", \"deterministic\": " +
          Bool(fleet_bench.flight_deterministic) + "}\n";
  json += "    },\n";
  json += "    \"huge_frame\": {\n";
  json += "      \"memory_mib\": " + Num(huge_frame.memory_mib) + ",\n";
  json += "      \"share\": " + Num(huge_frame.share) + ",\n";
  json += "      \"compaction_migrations\": " +
          Num(huge_frame.compaction_migrations) + ",\n";
  json += "      \"flush_savings\": " + Num(huge_frame.flush_savings) + ",\n";
  json += "      \"no_compaction\": " +
          HugeVariantJson(huge_frame.no_compaction) + ",\n";
  json += "      \"with_compaction\": " +
          HugeVariantJson(huge_frame.with_compaction) + ",\n";
  json += "      \"balloon_probe\": {\"demotions_2m\": " +
          Num(huge_frame.balloon_demotions_2m) + ", \"flush_savings\": " +
          Num(huge_frame.balloon_flush_savings) + "}\n";
  json += "    }\n";
  json += "  }\n";
  json += "}\n";

  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  std::printf("%s", json.c_str());
  std::fprintf(stderr, "wrote %s\n", out.c_str());

  // The gate: every check that failed is named on one FAILED line.
  Gate gate;
  gate.Check(batch.speedup_vs_single >= kMinBatchSpeedup,
             "batched/single LLFree speedup below 2.0");
  gate.Check(smoke ||
                 fleet_bench.telemetry_overhead_pct <= kMaxTelemetryOverheadPct,
             "telemetry overhead above 5%");
  gate.Check(batch.ops > 0, "batch stage recorded no ops");
  gate.Check(batch.valid, "LLFree::Validate failed after the batch stage");
  gate.Check(!attribution.enabled ||
                 (attribution.inflate.found &&
                  attribution.inflate.charge_closed &&
                  attribution.deflate.found &&
                  attribution.deflate.charge_closed),
             "span charge closure broken");
  gate.Check(!attribution.enabled || (attribution.inflate.total_vns > 0 &&
                                      attribution.deflate.total_vns > 0),
             "attribution phase took no virtual time");
  gate.Check(attribution.dropped_spans == 0,
             "attribution span ring dropped spans");
  gate.Check(attribution.valid, "LLFree::Validate failed after attribution");
  gate.Check(multivm.deterministic, "multivm non-deterministic");
  gate.Check(multivm.spans_dropped == 0, "multivm span ring dropped spans");
  gate.Check(!multivm.spans_checked || multivm.spans_deterministic,
             "span streams differ across thread counts");
  CheckFleet(fleet_bench.options, fleet_bench.result,
             fleet_bench.deterministic, &gate);
  gate.Check(!fleet_bench.span_checked || fleet_bench.span_matched,
             "fleet request spans disagree with the engine's resizes");
  gate.Check(fleet_bench.telemetry_deterministic &&
                 fleet_bench.flight_deterministic &&
                 (!fleet_bench.result.telemetry.enabled ||
                  fleet_bench.flight_dumps > 0),
             "telemetry stream/flight recorder broken");
  // §4.14: each variant's shrink must reclaim huge frames, and
  // compaction must actually evacuate blocks, lower the fragmentation
  // score, and let the shrink reclaim at least as much as the
  // uncompacted run (perf_gate.py holds the share >= 0.8 floor).
  for (const HugeFrameVariant* variant :
       {&huge_frame.no_compaction, &huge_frame.with_compaction}) {
    gate.Check(variant->reclaim_untouched + variant->reclaim_2m +
                       variant->reclaim_4k >
                   0,
               "huge-frame shrink reclaimed no huge frames");
  }
  gate.Check(huge_frame.with_compaction.compaction_blocks > 0 &&
                 huge_frame.with_compaction.frag_after <
                     huge_frame.with_compaction.frag_before &&
                 huge_frame.with_compaction.reclaimed_mib >=
                     huge_frame.no_compaction.reclaimed_mib,
             "huge-frame compaction ineffective");
  gate.Check(huge_frame.valid, "LLFree::Validate failed after huge_frame");
  return gate.Finish();
}

}  // namespace
}  // namespace hyperalloc::bench

int main(int argc, char** argv) {
  return hyperalloc::bench::Main(argc, argv);
}

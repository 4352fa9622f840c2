// Machine-readable performance runner for the paths this repo's perf
// trajectory tracks: LLFree get/put (single-frame and batched), the
// sharded host frame pool, the span-attribution closure of a HyperAlloc
// resize, the compile fleet (the old multi-VM experiment, now a fleet
// client), the policy-driven fleet scenario at 1024 VMs (128 in
// smoke), and the fleet telemetry pipeline (sampling overhead, alert
// counts, flight-recorder determinism). Emits one JSON document (default
// BENCH_PR10.json; schema checked by scripts/check_bench_json.py,
// regressions gated by scripts/perf_gate.py) so runs are comparable
// across commits.
//
//   --smoke          small sizes for CI (seconds, not minutes)
//   --out=PATH       output path (default BENCH_PR10.json)
//   --threads=N      host threads for the pool, multi-VM, and fleet
//                    benches (default 4; the determinism checks always
//                    also run single-threaded and compare series/digests)
//   --batch=N        train size for the batched LLFree bench (default
//                    512 base frames per GetBatch/PutBatch round)
//   --trace-out=PATH writes the attribution run's span tree in the
//                    shared trace artifact layout (bench/trace_io.h):
//                    Perfetto JSON (PATH itself when it ends in .json),
//                    PATH.spans.csv and PATH.prom
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/fleet_bench.h"
#include "bench/trace_io.h"
#include "src/core/hyperalloc.h"
#include "src/guest/compaction.h"
#include "src/llfree/frame_cache.h"
#include "src/llfree/llfree.h"
#include "src/trace/span.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct OpsResult {
  uint64_t ops = 0;
  double wall_ms = 0.0;
  double ops_per_sec = 0.0;

  void Finish(Clock::time_point start) {
    wall_ms = MsSince(start);
    ops_per_sec = wall_ms > 0.0 ? static_cast<double>(ops) / wall_ms * 1e3
                                : 0.0;
  }
};

// Single-threaded LLFree get/put throughput: batches of base-frame and
// huge-frame allocations, freed in order (the allocator hot path every
// guest operation rides on).
OpsResult BenchLLFreeAllocFree(bool smoke) {
  const uint64_t frames = 1ull << (smoke ? 16 : 20);
  llfree::Config config;
  config.cores = 4;
  llfree::SharedState state(frames, config);
  llfree::LLFree alloc(&state);

  const int rounds = smoke ? 200 : 4000;
  constexpr int kBatch = 512;
  std::vector<FrameId> held;
  held.reserve(kBatch);

  OpsResult result;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    const unsigned core = static_cast<unsigned>(round % 4);
    const unsigned order = round % 8 == 0 ? kHugeOrder : 0;
    for (int i = 0; i < kBatch; ++i) {
      const Result<FrameId> r = alloc.Get(core, order, AllocType::kMovable);
      if (!r.ok()) {
        break;
      }
      held.push_back(*r);
    }
    for (const FrameId frame : held) {
      alloc.Put(frame, order);
    }
    result.ops += 2 * held.size();
    held.clear();
  }
  result.Finish(start);
  return result;
}

// Batched vs single-frame hot path, same allocator shape: order-0 trains
// of `batch` frames claimed word-at-a-time via GetBatch/PutBatch against
// the same volume of per-frame Get/Put transactions, plus the per-core
// FrameCache layered over the batch API. Each variant runs on a fresh
// allocator so state is identical. speedup_vs_single is the perf-gate
// metric (scripts/perf_gate.py FLOORS): both sides run in-process on the
// same host, so the ratio cancels machine speed.
struct BatchBenchResult {
  OpsResult batched;
  OpsResult single;
  OpsResult cached;
  double speedup_vs_single = 0.0;
  unsigned batch = 0;
};

BatchBenchResult BenchLLFreeBatchAllocFree(bool smoke, unsigned batch) {
  const uint64_t frames = 1ull << (smoke ? 16 : 20);
  llfree::Config config;
  config.cores = 4;
  const int rounds = smoke ? 200 : 4000;

  BatchBenchResult result;
  result.batch = batch;
  std::vector<FrameId> held;
  held.reserve(batch);

  {
    llfree::SharedState state(frames, config);
    llfree::LLFree alloc(&state);
    const Clock::time_point start = Clock::now();
    for (int round = 0; round < rounds; ++round) {
      const unsigned core = static_cast<unsigned>(round % 4);
      const unsigned got =
          alloc.GetBatch(core, 0, batch, AllocType::kMovable, &held);
      alloc.PutBatch(held, 0);
      result.batched.ops += 2 * got;
      held.clear();
    }
    result.batched.Finish(start);
  }
  {
    llfree::SharedState state(frames, config);
    llfree::LLFree alloc(&state);
    const Clock::time_point start = Clock::now();
    for (int round = 0; round < rounds; ++round) {
      const unsigned core = static_cast<unsigned>(round % 4);
      for (unsigned i = 0; i < batch; ++i) {
        const Result<FrameId> r = alloc.Get(core, 0, AllocType::kMovable);
        if (!r.ok()) {
          break;
        }
        held.push_back(*r);
      }
      for (const FrameId frame : held) {
        alloc.Put(frame, 0);
      }
      result.single.ops += 2 * held.size();
      held.clear();
    }
    result.single.Finish(start);
  }
  {
    llfree::SharedState state(frames, config);
    llfree::LLFree alloc(&state);
    llfree::FrameCache::CacheConfig cc;
    cc.slots = 4;
    cc.capacity = batch;
    cc.refill = std::max(1u, batch / 2);
    llfree::FrameCache cache(&alloc, cc);
    const Clock::time_point start = Clock::now();
    for (int round = 0; round < rounds; ++round) {
      const unsigned core = static_cast<unsigned>(round % 4);
      for (unsigned i = 0; i < batch; ++i) {
        const Result<FrameId> r = cache.Get(core, 0, AllocType::kMovable);
        if (!r.ok()) {
          break;
        }
        held.push_back(*r);
      }
      for (const FrameId frame : held) {
        cache.Put(core, frame, 0, AllocType::kMovable);
      }
      result.cached.ops += 2 * held.size();
      held.clear();
    }
    cache.Drain();
    result.cached.Finish(start);
  }
  if (result.single.ops_per_sec > 0.0) {
    result.speedup_vs_single =
        result.batched.ops_per_sec / result.single.ops_per_sec;
  }
  return result;
}

// Multi-threaded TryReserve/Release storm on one pool. Mixed batch sizes
// exercise the shard fast path, the batched global refill/drain, and —
// because the pool is sized near the demand — the cross-shard
// rebalancer. The quiescent invariant (credits == total - used, used ==
// 0) is validated after the threads join.
OpsResult BenchHostPool(unsigned threads, bool smoke, bool* invariant_ok,
                        uint64_t* refills, uint64_t* drains,
                        uint64_t* rebalances, uint64_t* rebalance_skips) {
  // 32 MiB worth of frames — smaller than even one thread's outstanding
  // window (64 batches averaging 256 frames), so admission runs at the
  // capacity limit where it has to raid other shards' credits (the
  // rebalancer path) and reservations legitimately fail, however the OS
  // schedules the threads.
  hv::HostMemory pool(1ull << 13);
  const int iters = smoke ? 40000 : 800000;

  auto worker = [&pool, iters](uint64_t* ops) {
    std::vector<uint64_t> outstanding;
    outstanding.reserve(64);
    uint64_t local_ops = 0;
    for (int i = 0; i < iters; ++i) {
      const uint64_t batch = static_cast<uint64_t>(i % 7 + 1) * 64;
      if (outstanding.size() < 64 && pool.TryReserve(batch)) {
        outstanding.push_back(batch);
      } else if (!outstanding.empty()) {
        pool.Release(outstanding.back());
        outstanding.pop_back();
      }
      ++local_ops;
    }
    for (const uint64_t batch : outstanding) {
      pool.Release(batch);
    }
    *ops = local_ops;
  };

  std::vector<uint64_t> ops(threads, 0);
  OpsResult result;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> pool_threads;
  pool_threads.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool_threads.emplace_back(worker, &ops[t]);
  }
  for (std::thread& t : pool_threads) {
    t.join();
  }
  for (const uint64_t n : ops) {
    result.ops += n;
  }
  result.Finish(start);
  *invariant_ok = pool.used_frames() == 0 &&
                  pool.DebugFreeCredits() == pool.total_frames();
  *refills = pool.refills();
  *drains = pool.drains();
  *rebalances = pool.rebalances();
  *rebalance_skips = pool.rebalance_skips();
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
  double wall_ms = 0.0;
  double virtual_wall_skew = 0.0;  // virtual ns per wall ns
  uint64_t layer_ns[trace::kNumLayers] = {};
};

struct AttributionBench {
  bool enabled = false;  // false when built with HYPERALLOC_TRACE=0
  PhaseAttribution inflate;  // shrink (hard reclamation)
  PhaseAttribution deflate;  // grow (return)
  uint64_t dropped_spans = 0;
  double traced_wall_ms = 0.0;
  double untraced_wall_ms = 0.0;
  double trace_overhead_pct = 0.0;
  std::vector<trace::SpanRecord> spans;  // both phases, for --trace-out
};

#if HYPERALLOC_TRACE

PhaseAttribution AttributePhase(const std::vector<trace::SpanRecord>& spans,
                                const char* root_name, double wall_ms) {
  PhaseAttribution phase;
  phase.wall_ms = wall_ms;
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
  if (wall_ms > 0.0) {
    phase.virtual_wall_skew =
        static_cast<double>(phase.total_vns) / (wall_ms * 1e6);
  }
  return phase;
}

AttributionBench BenchAttribution() {
  AttributionBench result;
  result.enabled = true;
  trace::SpanTracer& spans = trace::SpanTracer::Global();
  spans.SetCapacity(size_t{1} << 18);
  const uint64_t dropped_before = spans.dropped_spans();

  // One cycle: prepare 6 GiB of touched-then-freed guest memory, shrink
  // the limit to 2 GiB (inflate), grow it back (deflate). With `traced`
  // off this measures the span machinery's wall overhead (arming checks
  // only — the same binary, tracer disabled).
  auto cycle = [&spans](bool traced, AttributionBench* out) {
    spans.SetEnabled(traced);
    SetupOptions options;
    options.memory_bytes = 8 * kGiB;
    options.host_bytes = 16 * kGiB;
    Setup setup = MakeSetup(Candidate::kHyperAlloc, options);
    workloads::MemoryPool pool(setup.vm.get());
    const uint64_t prep = pool.AllocRegion(6 * kGiB, /*thp_fraction=*/0.95, 0);
    pool.FreeRegion(prep, 0);
    setup.vm->PurgeAllocatorCaches();
    (void)spans.Drain();  // prep-phase install traces are not under test

    const Clock::time_point t_shrink = Clock::now();
    setup.SetLimit(2 * kGiB);
    const double shrink_ms = MsSince(t_shrink);
    if (traced && out != nullptr) {
      std::vector<trace::SpanRecord> shrink_spans = spans.Drain();
      out->inflate = AttributePhase(shrink_spans, "request.inflate",
                                    shrink_ms);
      out->spans.insert(out->spans.end(), shrink_spans.begin(),
                        shrink_spans.end());
    }

    const Clock::time_point t_grow = Clock::now();
    setup.SetLimit(8 * kGiB);
    const double grow_ms = MsSince(t_grow);
    if (traced && out != nullptr) {
      std::vector<trace::SpanRecord> grow_spans = spans.Drain();
      out->deflate = AttributePhase(grow_spans, "request.deflate", grow_ms);
      out->spans.insert(out->spans.end(), grow_spans.begin(),
                        grow_spans.end());
    }
    spans.SetEnabled(false);
    return shrink_ms + grow_ms;
  };

  result.traced_wall_ms = cycle(true, &result);
  result.dropped_spans = spans.dropped_spans() - dropped_before;
  result.untraced_wall_ms = cycle(false, nullptr);
  if (result.untraced_wall_ms > 0.0) {
    result.trace_overhead_pct = (result.traced_wall_ms -
                                 result.untraced_wall_ms) /
                                result.untraced_wall_ms * 100.0;
  }
  return result;
}

// ----------------------------------------------------------------------
// Span determinism across thread counts: canonicalized per-VM span
// streams (virtual-time fields only, host-pool slow paths excluded —
// refills/rebalances depend on the OS interleaving by design) must be
// identical between the 1-thread and N-thread multi-VM runs.
// ----------------------------------------------------------------------

std::vector<std::vector<trace::SpanRecord>> CanonicalPerVmStreams(
    std::vector<trace::SpanRecord> spans, int vms) {
  std::vector<std::vector<trace::SpanRecord>> streams(
      static_cast<size_t>(vms));
  // seq is assigned by one global counter at emission; each VM's spans
  // are emitted in program order on whichever thread runs it, so sorting
  // a VM's spans by seq restores that VM's deterministic program order.
  std::sort(spans.begin(), spans.end(),
            [](const trace::SpanRecord& a, const trace::SpanRecord& b) {
              return a.seq < b.seq;
            });
  for (const trace::SpanRecord& span : spans) {
    if (span.layer == trace::Layer::kHostPool) {
      continue;
    }
    if (span.vm < static_cast<uint32_t>(vms)) {
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
  int vms = 0;
  unsigned threads = 0;
  double wall_ms_single = 0.0;
  double wall_ms_parallel = 0.0;
  bool deterministic = false;
  double footprint_gib_min = 0.0;
  double peak_gib = 0.0;
  // Span-stream determinism guard (satellite of the RSS-series one):
  // checked only when spans are compiled in and no ring overflowed.
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
  result.wall_ms_single = single.wall_ms;
  result.wall_ms_parallel = parallel.wall_ms;
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
  result.spans_single = single_spans.size();
  result.spans_dropped = spans.dropped_spans() - dropped_before;
  result.spans_checked = result.spans_dropped == 0;
  if (result.spans_checked) {
    const auto a = CanonicalPerVmStreams(single_spans, config.vms);
    const auto b = CanonicalPerVmStreams(parallel_spans, config.vms);
    result.spans_deterministic = true;
    for (int i = 0; i < config.vms; ++i) {
      if (!SpanStreamsEqual(a[static_cast<size_t>(i)],
                            b[static_cast<size_t>(i)])) {
        result.spans_deterministic = false;
        break;
      }
    }
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
  // Span cross-check: resize latencies re-derived from request-layer
  // spans of a small traced run must reproduce the engine's p99 exactly
  // (same nearest-rank method, same virtual instants).
  bool span_checked = false;
  bool span_matched = false;
  double span_p99_ms = 0.0;
  double engine_p99_ms = 0.0;
  // Telemetry: the N-thread run samples the pipeline every barrier
  // (wall_ms_on is its wall time); the same scenario with telemetry
  // disabled gives wall_ms_off. The pipeline's stream digest must match
  // the 1-thread reference (telemetry_deterministic).
  bool telemetry_deterministic = false;
  double wall_ms_on = 0.0;
  double wall_ms_off = 0.0;
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
  // Both sides are sub-second wall-clock runs, so take the minimum of
  // three samples each — the least-noise estimate of the true cost.
  bench.wall_ms_on = bench.result.wall_ms;
  FleetScenarioOptions off = bench.options;
  off.telemetry.enabled = false;
  bench.wall_ms_off = RunFleetScenario(off).wall_ms;
  for (int i = 0; i < 2; ++i) {
    bench.wall_ms_on =
        std::min(bench.wall_ms_on, RunFleetScenario(bench.options).wall_ms);
    bench.wall_ms_off =
        std::min(bench.wall_ms_off, RunFleetScenario(off).wall_ms);
  }
  bench.telemetry_overhead_pct =
      bench.wall_ms_off > 0.0
          ? (bench.wall_ms_on - bench.wall_ms_off) / bench.wall_ms_off * 100.0
          : 0.0;

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
  bench.span_checked = span_ms.size() == traced_result.slo.resizes;
  bench.span_p99_ms = fleet::PercentileMs(span_ms, 0.99);
  bench.engine_p99_ms = traced_result.slo.p99_resize_ms;
  bench.span_matched =
      bench.span_checked &&
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
  double wall_ms = 0.0;
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
};

HugeFrameVariant RunHugeFrameVariant(bool smoke, bool compact) {
  HugeFrameVariant variant;
  variant.compaction = compact;
  const Clock::time_point start = Clock::now();

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
    guest::CompactionConfig config;
    guest::Compactor compactor(setup.vm.get(), config);
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
  variant.reclaim_untouched = monitor->reclaim_untouched();
  variant.reclaim_2m = monitor->reclaim_unmapped_2m();
  variant.reclaim_4k = monitor->reclaim_unmapped_4k();
  variant.share = monitor->HugeReclaimShare();
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
  variant.wall_ms = MsSince(start);
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
  {
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
  }
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

// Serializes one attribution phase, including per-layer ns + share of
// the root's virtual time (only layers that received charges).
std::string PhaseJson(const PhaseAttribution& phase) {
  std::string json;
  json += "{\n";
  json += "        \"found\": " + std::string(phase.found ? "true" : "false") +
          ",\n";
  json += "        \"total_vns\": " + Num(phase.total_vns) + ",\n";
  json += "        \"charged_ns\": " + Num(phase.charged_ns) + ",\n";
  json += "        \"charge_closed\": " +
          std::string(phase.charge_closed ? "true" : "false") + ",\n";
  json += "        \"wall_ms\": " + Num(phase.wall_ms) + ",\n";
  json += "        \"virtual_wall_skew\": " + Num(phase.virtual_wall_skew) +
          ",\n";
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
  json += "        \"compaction\": " +
          std::string(variant.compaction ? "true" : "false") + ",\n";
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
  json += "        \"flush_savings\": " + Num(variant.flush_savings) + ",\n";
  json += "        \"wall_ms\": " + Num(variant.wall_ms) + "\n";
  json += "      }";
  return json;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_PR10.json";
  const std::string trace_out = TraceOutPath(argc, argv);
  unsigned threads = 4;
  unsigned batch = 512;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<unsigned>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      batch = static_cast<unsigned>(std::atoi(argv[i] + 8));
    }
  }
  if (threads == 0) {
    threads = 1;
  }
  if (batch == 0) {
    batch = 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();

  std::fprintf(stderr, "[1/7] llfree_alloc_free...\n");
  const OpsResult llfree_result = BenchLLFreeAllocFree(smoke);

  std::fprintf(stderr, "[2/7] llfree_batch_alloc_free (batch %u)...\n",
               batch);
  const BatchBenchResult batch_result =
      BenchLLFreeBatchAllocFree(smoke, batch);

  std::fprintf(stderr, "[3/7] host_reserve_release (%u threads)...\n",
               threads);
  bool invariant_ok = false;
  uint64_t refills = 0;
  uint64_t drains = 0;
  uint64_t rebalances = 0;
  uint64_t rebalance_skips = 0;
  const OpsResult pool_result =
      BenchHostPool(threads, smoke, &invariant_ok, &refills, &drains,
                    &rebalances, &rebalance_skips);

  std::fprintf(stderr, "[4/7] attribution (HyperAlloc shrink+grow)...\n");
  const AttributionBench attribution = BenchAttribution();

  std::fprintf(stderr, "[5/7] multivm (8 VMs, 1 vs %u threads)...\n",
               threads);
  const MultiVmBench multivm = BenchMultiVm(smoke, threads);

  std::fprintf(stderr, "[6/7] fleet (%s VMs, 1 vs %u threads, telemetry "
                       "on/off + flight probe)...\n",
               smoke ? "128" : "1024", threads);
  const FleetBench fleet_bench = BenchFleet(smoke, threads);

  std::fprintf(stderr, "[7/7] huge_frame (churn + shrink, compaction "
                       "off/on + balloon probe)...\n");
  const HugeFrameBench huge_frame = BenchHugeFrame(smoke);

  if (!trace_out.empty()) {
    WriteTraceOut(trace_out, attribution.spans);
  }

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"hyperalloc-bench-v6\",\n";
  json += "  \"pr\": \"PR10\",\n";
  json += "  \"smoke\": " + std::string(smoke ? "true" : "false") + ",\n";
  json += "  \"hardware_concurrency\": " + Num(uint64_t{hw}) + ",\n";
  json += "  \"note\": \"virtual-time results are deterministic; wall-clock"
          " numbers depend on the host (a single-core host serializes the"
          " multi-VM workers, so parallel wall time only drops with >1"
          " cores)\",\n";
  json += "  \"benches\": {\n";
  json += "    \"llfree_alloc_free\": {\n";
  json += "      \"ops\": " + Num(llfree_result.ops) + ",\n";
  json += "      \"wall_ms\": " + Num(llfree_result.wall_ms) + ",\n";
  json += "      \"ops_per_sec\": " + Num(llfree_result.ops_per_sec) + "\n";
  json += "    },\n";
  json += "    \"llfree_batch_alloc_free\": {\n";
  json += "      \"batch\": " + Num(uint64_t{batch_result.batch}) + ",\n";
  json += "      \"ops\": " + Num(batch_result.batched.ops) + ",\n";
  json += "      \"wall_ms\": " + Num(batch_result.batched.wall_ms) + ",\n";
  json += "      \"ops_per_sec\": " + Num(batch_result.batched.ops_per_sec) +
          ",\n";
  json += "      \"single_ops_per_sec\": " +
          Num(batch_result.single.ops_per_sec) + ",\n";
  json += "      \"cached_ops_per_sec\": " +
          Num(batch_result.cached.ops_per_sec) + ",\n";
  json += "      \"speedup_vs_single\": " +
          Num(batch_result.speedup_vs_single) + "\n";
  json += "    },\n";
  json += "    \"host_reserve_release\": {\n";
  json += "      \"threads\": " + Num(uint64_t{threads}) + ",\n";
  json += "      \"ops\": " + Num(pool_result.ops) + ",\n";
  json += "      \"wall_ms\": " + Num(pool_result.wall_ms) + ",\n";
  json += "      \"ops_per_sec\": " + Num(pool_result.ops_per_sec) + ",\n";
  json += "      \"invariant_ok\": " +
          std::string(invariant_ok ? "true" : "false") + ",\n";
  json += "      \"refills\": " + Num(refills) + ",\n";
  json += "      \"drains\": " + Num(drains) + ",\n";
  json += "      \"rebalances\": " + Num(rebalances) + ",\n";
  json += "      \"rebalance_skips\": " + Num(rebalance_skips) + "\n";
  json += "    },\n";
  json += "    \"attribution\": {\n";
  json += "      \"enabled\": " +
          std::string(attribution.enabled ? "true" : "false") + ",\n";
  if (attribution.enabled) {
    json += "      \"candidate\": \"HyperAlloc\",\n";
    json += "      \"dropped_spans\": " + Num(attribution.dropped_spans) +
            ",\n";
    json += "      \"inflate\": " + PhaseJson(attribution.inflate) + ",\n";
    json += "      \"deflate\": " + PhaseJson(attribution.deflate) + ",\n";
    json += "      \"trace_overhead\": {\n";
    json += "        \"traced_wall_ms\": " + Num(attribution.traced_wall_ms) +
            ",\n";
    json += "        \"untraced_wall_ms\": " +
            Num(attribution.untraced_wall_ms) + ",\n";
    json += "        \"overhead_pct\": " +
            Num(attribution.trace_overhead_pct) + "\n";
    json += "      }\n";
  } else {
    json += "      \"note\": \"built with HYPERALLOC_TRACE=0\"\n";
  }
  json += "    },\n";
  json += "    \"multivm\": {\n";
  json += "      \"vms\": " + Num(uint64_t{static_cast<uint64_t>(
                                  multivm.vms)}) + ",\n";
  json += "      \"threads\": " + Num(uint64_t{multivm.threads}) + ",\n";
  json += "      \"wall_ms_single\": " + Num(multivm.wall_ms_single) + ",\n";
  json += "      \"wall_ms_parallel\": " + Num(multivm.wall_ms_parallel) +
          ",\n";
  json += "      \"deterministic\": " +
          std::string(multivm.deterministic ? "true" : "false") + ",\n";
  json += "      \"spans_checked\": " +
          std::string(multivm.spans_checked ? "true" : "false") + ",\n";
  json += "      \"spans_deterministic\": " +
          std::string(multivm.spans_deterministic ? "true" : "false") +
          ",\n";
  json += "      \"spans_single\": " + Num(multivm.spans_single) + ",\n";
  json += "      \"spans_dropped\": " + Num(multivm.spans_dropped) + ",\n";
  json += "      \"footprint_gib_min\": " + Num(multivm.footprint_gib_min) +
          ",\n";
  json += "      \"peak_gib\": " + Num(multivm.peak_gib) + "\n";
  json += "    },\n";
  json += "    \"fleet\": " +
          FleetJson(fleet_bench.options, fleet_bench.result,
                    fleet_bench.deterministic, 6) +
          ",\n";
  json += "    \"fleet_span_check\": {\n";
  json += "      \"checked\": " +
          std::string(fleet_bench.span_checked ? "true" : "false") + ",\n";
  json += "      \"matched\": " +
          std::string(fleet_bench.span_matched ? "true" : "false") + ",\n";
  json += "      \"span_p99_ms\": " + Num(fleet_bench.span_p99_ms) + ",\n";
  json += "      \"engine_p99_ms\": " + Num(fleet_bench.engine_p99_ms) + "\n";
  json += "    },\n";
  char flight_digest[32];
  std::snprintf(flight_digest, sizeof(flight_digest), "0x%016" PRIx64,
                fleet_bench.flight_digest);
  json += "    \"telemetry\": {\n";
  json += "      \"enabled\": " +
          std::string(fleet_bench.result.telemetry.enabled ? "true"
                                                           : "false") +
          ",\n";
  json += "      \"epochs\": " + Num(fleet_bench.result.telemetry.epochs) +
          ",\n";
  json += "      \"alerts\": " + Num(fleet_bench.result.telemetry.alerts) +
          ",\n";
  json += "      \"wall_ms_on\": " + Num(fleet_bench.wall_ms_on) + ",\n";
  json += "      \"wall_ms_off\": " + Num(fleet_bench.wall_ms_off) + ",\n";
  json += "      \"telemetry_overhead_pct\": " +
          Num(fleet_bench.telemetry_overhead_pct) + ",\n";
  json += "      \"deterministic\": " +
          std::string(fleet_bench.telemetry_deterministic ? "true"
                                                          : "false") +
          ",\n";
  json += "      \"flight\": {\"dumps\": " + Num(fleet_bench.flight_dumps) +
          ", \"ring_epochs\": " + Num(fleet_bench.flight_ring_epochs) +
          ", \"digest\": \"" + flight_digest + "\", \"deterministic\": " +
          std::string(fleet_bench.flight_deterministic ? "true" : "false") +
          "}\n";
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

  // The runner doubles as a correctness gate: a non-deterministic
  // multi-VM run, a pool imbalance, or a broken span-charge closure is a
  // regression, not a slow run.
  const bool attribution_ok =
      !attribution.enabled ||
      (attribution.inflate.found && attribution.inflate.charge_closed &&
       attribution.deflate.found && attribution.deflate.charge_closed);
  const bool spans_ok = !multivm.spans_checked || multivm.spans_deterministic;
  const bool fleet_span_ok =
      !fleet_bench.span_checked || fleet_bench.span_matched;
  const bool telemetry_ok =
      fleet_bench.telemetry_deterministic &&
      fleet_bench.flight_deterministic &&
      (!fleet_bench.result.telemetry.enabled || fleet_bench.flight_dumps > 0);
  // §4.14: compaction must actually evacuate blocks, lower the
  // fragmentation score, and let the shrink reclaim at least as much as
  // the uncompacted run (perf_gate.py holds the share >= 0.8 floor).
  const bool huge_ok =
      huge_frame.with_compaction.compaction_blocks > 0 &&
      huge_frame.with_compaction.frag_after <
          huge_frame.with_compaction.frag_before &&
      huge_frame.with_compaction.reclaimed_mib >=
          huge_frame.no_compaction.reclaimed_mib;
  if (!invariant_ok || !multivm.deterministic || !attribution_ok ||
      !spans_ok || !fleet_bench.deterministic ||
      !fleet_bench.result.slo.spike_satisfied || !fleet_span_ok ||
      !telemetry_ok || !huge_ok) {
    std::fprintf(
        stderr, "FAILED: %s%s%s%s%s%s%s%s%s\n",
        invariant_ok ? "" : "pool invariant violated ",
        multivm.deterministic ? "" : "multivm non-deterministic ",
        attribution_ok ? "" : "span charge closure broken ",
        spans_ok ? "" : "span streams differ across thread counts ",
        fleet_bench.deterministic ? "" : "fleet non-deterministic ",
        fleet_bench.result.slo.spike_satisfied
            ? ""
            : "fleet pressure spike never satisfied ",
        fleet_span_ok ? "" : "fleet span-derived p99 mismatch",
        telemetry_ok ? "" : "telemetry stream/flight recorder broken ",
        huge_ok ? "" : "huge-frame compaction ineffective ");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hyperalloc::bench

int main(int argc, char** argv) {
  return hyperalloc::bench::Main(argc, argv);
}

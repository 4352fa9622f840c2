// Shared harness for the clang-compilation elasticity experiments
// (Figs. 7, 8, 9, 11): runs the compile workload on a candidate's VM with
// automatic reclamation, sampling the memory-usage metrics of Fig. 8 at
// 1 Hz.
#ifndef HYPERALLOC_BENCH_COMPILE_HARNESS_H_
#define HYPERALLOC_BENCH_COMPILE_HARNESS_H_

#include <memory>
#include <string>

#include "bench/candidates.h"
#include "src/metrics/timeseries.h"
#include "src/workloads/compile.h"
#include "src/workloads/interference_hub.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::bench {

struct CompileRunResult {
  double footprint_gib_min = 0.0;  // integral of RSS over the build
  double runtime_min = 0.0;
  double peak_rss_gib = 0.0;
  hv::CpuAccounting cpu;           // reclamation CPU time
  sim::Time fault_time = 0;        // EPT fault/populate time ("system")
  uint64_t ept_faults = 0;
  uint64_t oom_events = 0;
  uint64_t iommu_maps = 0;
  uint64_t iotlb_flushes = 0;
  // 1 Hz series (Fig. 8): assigned VM memory, used huge pages, allocated
  // small pages, page cache. Times relative to workload start.
  metrics::TimeSeries rss, huge, small, cached;
};

struct CompileRunOptions {
  uint64_t memory_bytes = 16 * kGiB;
  workloads::CompileConfig compile;
  // Extend the run as in Fig. 8's in-depth analysis: idle, `make clean`,
  // idle, drop caches.
  bool detail_tail = false;
  sim::Time tail_idle = 200 * sim::kSec;
  bool auto_reclaim = true;
  SetupOptions setup_options;
};

inline CompileRunResult RunCompile(Candidate candidate,
                                   const CompileRunOptions& options) {
  SetupOptions so = options.setup_options;
  so.memory_bytes = options.memory_bytes;
  Setup setup = MakeSetup(candidate, so);
  guest::GuestVm& vm = *setup.vm;

  workloads::MemoryPool pool(&vm);

  sim::VcpuSet vcpus(vm.config().vcpus);
  workloads::InterferenceHub hub(&vcpus, {});
  vm.SetInterferenceSink(&hub);

  if (!HasDeflator(candidate)) {
    // The static baselines keep their full memory resident for the whole
    // run ("statically use 16 GiB", §5.5).
    vm.Touch(0, vm.total_frames());
  } else if (options.auto_reclaim) {
    setup.deflator->StartAuto();
  }

  CompileRunResult result;
  const sim::Time start = setup.sim->now();
  auto sample_all = [&result, &vm, start](sim::Time now) {
    const double t = static_cast<double>(now - start);
    (void)t;
    result.rss.Sample(now - start,
                      static_cast<double>(vm.rss_bytes()) /
                          static_cast<double>(kGiB));
    result.huge.Sample(now - start,
                       static_cast<double>(vm.UsedHugeBytes()) /
                           static_cast<double>(kGiB));
    result.small.Sample(now - start,
                        static_cast<double>(vm.AllocatedFrames()) *
                            static_cast<double>(kFrameSize) /
                            static_cast<double>(kGiB));
    result.cached.Sample(now - start,
                         static_cast<double>(vm.cache_bytes()) /
                             static_cast<double>(kGiB));
  };

  // 1 Hz sampler (self-rescheduling until stopped).
  bool sampling = true;
  std::function<void()> tick = [&] {
    if (!sampling) {
      return;
    }
    sample_all(setup.sim->now());
    setup.sim->After(sim::kSec, tick);
  };
  tick();

  workloads::CompileWorkload compile(&vm, &pool, &vcpus, options.compile);
  bool build_done = false;
  compile.Start([&] { build_done = true; });
  while (!build_done) {
    HA_CHECK(setup.sim->Step());
  }

  const sim::Time build_end = setup.sim->now();
  result.runtime_min = static_cast<double>(build_end - start) /
                       static_cast<double>(sim::kMin);

  if (options.detail_tail) {
    setup.sim->RunUntil(build_end + options.tail_idle);
    compile.MakeClean();
    setup.sim->RunUntil(build_end + 2 * options.tail_idle);
    vm.DropCaches();
    vm.PurgeAllocatorCaches();
    setup.sim->RunUntil(build_end + 2 * options.tail_idle + 30 * sim::kSec);
  }
  sampling = false;

  // Footprint over the build itself (Fig. 7 bars).
  metrics::TimeSeries build_rss;
  for (const auto& p : result.rss.points()) {
    if (p.at <= build_end - start) {
      build_rss.Sample(p.at, p.value);
    }
  }
  result.footprint_gib_min = build_rss.IntegralPerMinute();
  result.peak_rss_gib = result.rss.Max();
  if (setup.deflator != nullptr) {
    result.cpu = setup.deflator->cpu();
    setup.deflator->StopAuto();
  }
  result.fault_time = vm.fault_time();
  result.ept_faults = vm.ept_faults_2m() + vm.ept_faults_4k();
  result.oom_events = vm.oom_events();
  if (vm.iommu() != nullptr) {
    result.iommu_maps = vm.iommu()->map_ops();
    result.iotlb_flushes = vm.iommu()->iotlb_flushes();
  }
  return result;
}

}  // namespace hyperalloc::bench

#endif  // HYPERALLOC_BENCH_COMPILE_HARNESS_H_

// E7 — reproduces Fig. 10 (§5.5 "Repeated Workloads"): three consecutive
// SPEC-2017 blender runs with 4-minute idle periods, under virtio-balloon
// free-page reporting vs. HyperAlloc automatic reclamation. The page
// cache is dropped once at the end. Reports the memory footprint, the
// assigned VM memory at the end of each idle period, and after the cache
// drop — the paper's headline: 1.17 GiB (HyperAlloc) vs 4.08 GiB
// (virtio-balloon).
#include <sys/stat.h>

#include <cstdio>
#include <string>

#include "bench/candidates.h"
#include "bench/trace_io.h"
#include "src/metrics/timeseries.h"
#include "src/workloads/blender.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::bench {
namespace {

constexpr sim::Time kIdle = 4 * sim::kMin;

struct BlenderResult {
  double footprint_gib_min;
  double after_idle_gib[3];
  double final_gib;
  metrics::TimeSeries rss;
};

BlenderResult Run(Candidate candidate) {
  // A 10 GiB VM: the render's working set keeps the guest under real
  // memory pressure, which is what scatters the long-lived kernel state.
  SetupOptions options;
  options.memory_bytes = 10 * kGiB;
  Setup setup = MakeSetup(candidate, options);
  workloads::MemoryPool pool(setup.vm.get());
  setup.deflator->StartAuto();

  BlenderResult result{};
  const sim::Time start = setup.sim->now();
  bool sampling = true;
  std::function<void()> tick = [&] {
    if (!sampling) {
      return;
    }
    result.rss.Sample(setup.sim->now() - start,
                      static_cast<double>(setup.vm->rss_bytes()) /
                          static_cast<double>(kGiB));
    setup.sim->After(sim::kSec, tick);
  };
  tick();

  workloads::BlenderConfig blender_config;
  blender_config.working_set = 6 * kGiB + 512 * kMiB;
  workloads::BlenderWorkload blender(setup.vm.get(), &pool, blender_config);
  for (int run = 0; run < 3; ++run) {
    bool done = false;
    blender.Run([&] { done = true; });
    while (!done) {
      HA_CHECK(setup.sim->Step());
    }
    setup.sim->RunUntil(setup.sim->now() + kIdle);
    result.after_idle_gib[run] = static_cast<double>(setup.vm->rss_bytes()) /
                                 static_cast<double>(kGiB);
  }
  setup.vm->DropCaches();
  setup.vm->PurgeAllocatorCaches();
  setup.sim->RunUntil(setup.sim->now() + 30 * sim::kSec);
  result.final_gib = static_cast<double>(setup.vm->rss_bytes()) /
                     static_cast<double>(kGiB);
  sampling = false;
  result.footprint_gib_min = result.rss.IntegralPerMinute();
  setup.deflator->StopAuto();
  return result;
}

int Main() {
  ::mkdir("bench_out", 0755);
  std::printf("Fig. 10: repeated SPEC-2017 blender runs with automatic "
              "deflation (3 runs, 4 min idle between, drop caches at "
              "the end)\n\n");
  std::printf("%-20s %12s %8s %8s %8s %8s\n", "candidate", "footprint",
              "idle1", "idle2", "idle3", "dropped");
  std::printf("%-20s %12s %8s %8s %8s %8s\n", "", "[GiB*min]", "[GiB]",
              "[GiB]", "[GiB]", "[GiB]");

  double footprint[2] = {0, 0};
  double idle1[2] = {0, 0};
  int idx = 0;
  for (const Candidate candidate :
       {Candidate::kBalloon, Candidate::kHyperAlloc}) {
    const BlenderResult result = Run(candidate);
    std::printf("%-20s %12.1f %8.2f %8.2f %8.2f %8.2f\n", Name(candidate),
                result.footprint_gib_min, result.after_idle_gib[0],
                result.after_idle_gib[1], result.after_idle_gib[2],
                result.final_gib);
    const std::string path = std::string("bench_out/blender_") +
                             (candidate == Candidate::kBalloon
                                  ? "balloon"
                                  : "hyperalloc") +
                             "_rss.csv";
    result.rss.WriteCsv(path, "vm_gib");
    footprint[idx] = result.footprint_gib_min;
    idle1[idx] = result.after_idle_gib[0];
    ++idx;
    std::fflush(stdout);
  }
  std::printf("\nHyperAlloc reduces idle memory after run 1 by %.0f%% "
              "(paper: 49%%) and the footprint from %.0f to %.0f GiB*min "
              "(paper: 300 -> 234)\n",
              (1.0 - idle1[1] / idle1[0]) * 100.0, footprint[0],
              footprint[1]);
  return 0;
}

}  // namespace
}  // namespace hyperalloc::bench

int main(int argc, char** argv) {
  hyperalloc::bench::TraceOutput trace_out(argc, argv);
  return hyperalloc::bench::Main();
}

// Elastic CI build farm (the paper's §5.5 motivation): a build VM runs
// CI jobs in bursts with idle time in between. With HyperAlloc's
// automatic reclamation the VM's host-memory footprint follows the jobs;
// the same VM with a static allocation pays for its peak the whole time.
//
// Prints a small timeline plus the billed GiB·min with and without
// automatic reclamation — the metric cloud providers charge for.
#include <cstdio>

#include "src/base/units.h"
#include "src/core/hyperalloc.h"
#include "src/guest/guest_vm.h"
#include "src/metrics/timeseries.h"
#include "src/workloads/compile.h"
#include "src/workloads/memory_pool.h"

using namespace hyperalloc;

namespace {

double RunFarm(bool auto_reclaim) {
  sim::Simulation sim;
  hv::HostMemory host(FramesForBytes(32 * kGiB));

  guest::GuestConfig config;
  config.memory_bytes = 8 * kGiB;
  config.vcpus = 8;
  config.allocator = guest::AllocatorKind::kLLFree;
  guest::GuestVm vm(&sim, &host, config);
  core::HyperAllocMonitor monitor(&vm, {});
  if (auto_reclaim) {
    monitor.StartAuto();
  } else {
    vm.Touch(0, vm.total_frames());  // static VM: fully resident
  }

  workloads::MemoryPool pool(&vm);

  metrics::TimeSeries rss;
  bool sampling = true;
  std::function<void()> sample = [&] {
    if (!sampling) {
      return;
    }
    rss.Sample(sim.now(), static_cast<double>(vm.rss_bytes()) /
                              static_cast<double>(kGiB));
    sim.After(5 * sim::kSec, sample);
  };
  sample();

  // Three CI jobs with 5 minutes of idle time between them.
  workloads::CompileConfig job;
  job.workers = 8;
  job.compile_units = 150;
  job.link_jobs = 4;
  job.unit_ws_min = 40 * kMiB;
  job.unit_ws_max = 200 * kMiB;
  job.link_ws_min = 512 * kMiB;
  job.link_ws_max = kGiB;
  job.thp_fraction = 0.5;

  for (int ci_job = 0; ci_job < 3; ++ci_job) {
    job.seed = 10 + static_cast<uint64_t>(ci_job);
    workloads::CompileWorkload build(&vm, &pool, nullptr, job);
    bool done = false;
    build.Start([&] { done = true; });
    while (!done) {
      sim.Step();
    }
    build.MakeClean();
    std::printf("  job %d done at %-8s rss=%s\n", ci_job + 1,
                FormatDuration(sim.now()).c_str(),
                FormatBytes(vm.rss_bytes()).c_str());
    sim.RunUntil(sim.now() + 5 * sim::kMin);
    std::printf("  after idle:             rss=%s\n",
                FormatBytes(vm.rss_bytes()).c_str());
  }
  sampling = false;
  monitor.StopAuto();
  return rss.IntegralPerMinute();
}

}  // namespace

int main() {
  std::printf("CI build farm, static 8 GiB VM:\n");
  const double baseline = RunFarm(/*auto_reclaim=*/false);
  std::printf("CI build farm, HyperAlloc automatic reclamation:\n");
  const double elastic = RunFarm(/*auto_reclaim=*/true);

  std::printf("\nbilled footprint: static %.0f GiB*min vs elastic %.0f "
              "GiB*min (%.0f%% saved)\n",
              baseline, elastic, (1.0 - elastic / baseline) * 100.0);
  return 0;
}

// Determinism guarantees: identical configurations must produce
// bit-identical virtual-time results — the property that makes the
// benchmark suite reproducible across machines and runs.
#include <gtest/gtest.h>

#include "src/core/hyperalloc.h"
#include "src/guest/guest_vm.h"
#include "src/workloads/compile.h"
#include "src/workloads/memory_pool.h"
#include "src/workloads/spec_prep.h"

namespace hyperalloc {
namespace {

struct RunResult {
  sim::Time end_time;
  uint64_t rss;
  uint64_t installs;
  uint64_t soft_reclaims;
  uint64_t free_frames;

  bool operator==(const RunResult&) const = default;
};

RunResult RunOnce(uint64_t seed, unsigned slice) {
  sim::Simulation sim;
  hv::HostMemory host(FramesForBytes(8 * kGiB));
  guest::GuestConfig config;
  config.memory_bytes = 2 * kGiB;
  config.vcpus = 4;
  config.dma32_bytes = 0;
  config.allocator = guest::AllocatorKind::kLLFree;
  guest::GuestVm vm(&sim, &host, config);
  core::HyperAllocConfig hc;
  hc.hugepages_per_slice = slice;
  core::HyperAllocMonitor monitor(&vm, hc);
  monitor.StartAuto();

  workloads::MemoryPool pool(&vm);
  workloads::CompileConfig cc;
  cc.workers = 4;
  cc.compile_units = 40;
  cc.link_jobs = 2;
  cc.unit_ws_min = 8 * kMiB;
  cc.unit_ws_max = 48 * kMiB;
  cc.link_ws_min = 128 * kMiB;
  cc.link_ws_max = 256 * kMiB;
  cc.slab_per_job = 2 * kMiB;
  cc.seed = seed;
  workloads::CompileWorkload compile(&vm, &pool, nullptr, cc);
  bool done = false;
  compile.Start([&] { done = true; });
  while (!done) {
    sim.Step();
  }
  sim.RunUntil(sim.now() + 20 * sim::kSec);  // let the daemon settle
  monitor.StopAuto();

  return RunResult{sim.now(), vm.rss_bytes(), monitor.installs(),
                   monitor.soft_reclaims(), vm.FreeFrames()};
}

TEST(Determinism, IdenticalRunsAreBitIdentical) {
  const RunResult a = RunOnce(7, 512);
  const RunResult b = RunOnce(7, 512);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.installs, 0u);
  EXPECT_GT(a.soft_reclaims, 0u);
}

TEST(Determinism, SeedsChangeOutcomes) {
  const RunResult a = RunOnce(7, 512);
  const RunResult b = RunOnce(8, 512);
  // Different workload seeds must actually change the trace (guards
  // against the RNG being ignored).
  EXPECT_NE(a.end_time, b.end_time);
}

TEST(Determinism, SliceSizeDoesNotChangeOutcome) {
  // The event-loop slice granularity is an implementation knob: it may
  // reorder interleavings slightly but must not change what is
  // reclaimed once the system settles.
  const RunResult a = RunOnce(7, 512);
  const RunResult big = RunOnce(7, 4096);
  EXPECT_EQ(a.rss, big.rss);
  EXPECT_EQ(a.free_frames, big.free_frames);
}

}  // namespace
}  // namespace hyperalloc

// Randomized whole-stack stress: a GuestVm under a chaotic mix of
// allocations, frees, touches, page-cache churn, DMA, and concurrent
// HyperAlloc reclamation. Invariants checked at the end: allocator
// consistency, exact RSS/host accounting, no leaked frames.
#include <gtest/gtest.h>

#include <map>

#include "src/base/rng.h"
#include "src/core/hyperalloc.h"
#include "src/guest/guest_vm.h"

namespace hyperalloc {
namespace {

struct FuzzParam {
  guest::AllocatorKind allocator;
  bool vfio;
  bool with_monitor;
  uint64_t seed;
  const char* name;
};

class GuestFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(GuestFuzzTest, ChaosPreservesInvariants) {
  const FuzzParam& param = GetParam();
  sim::Simulation sim;
  hv::HostMemory host(FramesForBytes(2 * kGiB));
  guest::GuestConfig config;
  config.memory_bytes = 512 * kMiB;
  config.vcpus = 4;
  config.dma32_bytes = 128 * kMiB;
  config.allocator = param.allocator;
  config.vfio = param.vfio;
  guest::GuestVm vm(&sim, &host, config);
  std::unique_ptr<core::HyperAllocMonitor> monitor;
  if (param.with_monitor) {
    monitor = std::make_unique<core::HyperAllocMonitor>(
        &vm, core::HyperAllocConfig{});
    monitor->StartAuto();
  }

  Rng rng(param.seed);
  std::vector<std::pair<FrameId, unsigned>> live;

  for (int step = 0; step < 30000; ++step) {
    const unsigned core = static_cast<unsigned>(rng.Below(4));
    const uint64_t dice = rng.Below(1000);
    if (dice < 400) {  // allocate (+sometimes touch)
      static constexpr unsigned kOrders[] = {0, 0, 0, 1, 3, 9};
      const unsigned order = kOrders[rng.Below(6)];
      const AllocType type = static_cast<AllocType>(rng.Below(3));
      const Result<FrameId> r = vm.Alloc(order, type, core);
      if (r.ok()) {
        if (rng.Chance(0.7)) {
          vm.Touch(*r, 1ull << order);
        }
        live.emplace_back(*r, order);
      }
    } else if (dice < 750) {  // free
      if (!live.empty()) {
        const size_t idx = rng.Below(live.size());
        vm.Free(live[idx].first, live[idx].second, core);
        live[idx] = live.back();
        live.pop_back();
      }
    } else if (dice < 850) {  // page-cache churn
      if (rng.Chance(0.6)) {
        vm.CacheAdd(rng.Range(1, 64) * kFrameSize, core);
      } else {
        vm.CacheDrop(rng.Range(1, 64) * kFrameSize, core);
      }
    } else if (dice < 900) {  // touch random owned frame
      if (!live.empty()) {
        const auto& [frame, order] = live[rng.Below(live.size())];
        vm.Touch(frame, 1ull << order);
      }
    } else if (dice < 950) {  // DMA to an owned frame
      if (!live.empty() && param.with_monitor) {
        const auto& [frame, order] = live[rng.Below(live.size())];
        // Every owned frame must be DMA-safe under VFIO + HyperAlloc.
        if (param.vfio) {
          EXPECT_TRUE(vm.DmaWrite(frame, 1ull << order))
              << "step " << step << " frame " << frame;
        }
      }
    } else if (dice < 980) {  // let virtual time pass (daemon runs)
      sim.RunUntil(sim.now() + rng.Range(1, 6) * sim::kSec);
    } else {  // kernel cache purge
      vm.PurgeAllocatorCaches();
    }
  }

  // Tear down: everything freed and recovered.
  for (const auto& [frame, order] : live) {
    vm.Free(frame, order, 0);
  }
  vm.DropCaches();
  vm.PurgeAllocatorCaches();
  EXPECT_EQ(vm.FreeFrames(), vm.total_frames());
  EXPECT_EQ(vm.oom_events(), 0u);

  // Allocator-internal consistency.
  for (guest::Zone& zone : vm.zones()) {
    if (zone.buddy != nullptr) {
      EXPECT_TRUE(zone.buddy->Validate());
    } else {
      EXPECT_TRUE(zone.llfree->Validate());
    }
  }

  // Host accounting: RSS equals exactly what the host pool handed out.
  EXPECT_EQ(host.used_frames() * kFrameSize, vm.rss_bytes());
  if (monitor != nullptr) {
    monitor->StopAuto();
    // One final pass reclaims everything that is free and mapped.
    monitor->AutoReclaimPass();
    EXPECT_EQ(vm.rss_bytes(), 0u);
    EXPECT_EQ(host.used_frames(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GuestFuzzTest,
    ::testing::Values(
        FuzzParam{guest::AllocatorKind::kBuddy, false, false, 1,
                  "buddy_plain"},
        FuzzParam{guest::AllocatorKind::kLLFree, false, false, 2,
                  "llfree_plain"},
        FuzzParam{guest::AllocatorKind::kLLFree, false, true, 3,
                  "llfree_monitor"},
        FuzzParam{guest::AllocatorKind::kLLFree, true, true, 4,
                  "llfree_monitor_vfio"},
        FuzzParam{guest::AllocatorKind::kLLFree, true, true, 5,
                  "llfree_monitor_vfio_seed5"}),
    [](const ::testing::TestParamInfo<FuzzParam>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace hyperalloc

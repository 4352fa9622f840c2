// End-to-end integration tests across the whole stack: the relative
// performance and elasticity relationships the paper's evaluation rests
// on must hold in the simulation (small scale, fast versions of the
// benchmarks — regression guards for the E1..E8 experiments).
#include <gtest/gtest.h>

#include "src/balloon/virtio_balloon.h"
#include "src/core/hyperalloc.h"
#include "src/guest/guest_vm.h"
#include "src/vmem/virtio_mem.h"
#include "src/base/rng.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc {
namespace {

constexpr uint64_t kVmBytes = 4 * kGiB;
constexpr uint64_t kShrunk = kGiB;

struct Rig {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<hv::HostMemory> host;
  std::unique_ptr<guest::GuestVm> vm;
  std::unique_ptr<hv::Deflator> deflator;
  std::unique_ptr<workloads::MemoryPool> pool;

  sim::Time SetLimit(uint64_t bytes) {
    const sim::Time start = sim->now();
    bool done = false;
    deflator->Request({.target_bytes = bytes, .done = [&] { done = true; }});
    while (!done) {
      EXPECT_TRUE(sim->Step());
    }
    return sim->now() - start;
  }
};

enum class Kind { kBalloon, kBalloonHuge, kVmem, kHyperAlloc };

Rig MakeRig(Kind kind) {
  Rig rig;
  rig.sim = std::make_unique<sim::Simulation>();
  rig.host = std::make_unique<hv::HostMemory>(FramesForBytes(16 * kGiB));
  guest::GuestConfig config;
  config.memory_bytes = kVmBytes;
  config.vcpus = 4;
  config.dma32_bytes = 0;
  switch (kind) {
    case Kind::kHyperAlloc:
      config.allocator = guest::AllocatorKind::kLLFree;
      break;
    case Kind::kVmem:
      config.movable_bytes = kVmBytes - kGiB;
      break;
    default:
      break;
  }
  rig.vm = std::make_unique<guest::GuestVm>(rig.sim.get(), rig.host.get(),
                                            config);
  switch (kind) {
    case Kind::kBalloon:
      rig.deflator = std::make_unique<balloon::VirtioBalloon>(
          rig.vm.get(), balloon::BalloonConfig{});
      break;
    case Kind::kBalloonHuge: {
      balloon::BalloonConfig bc;
      bc.huge = true;
      bc.reporting_order = kHugeOrder;
      rig.deflator =
          std::make_unique<balloon::VirtioBalloon>(rig.vm.get(), bc);
      break;
    }
    case Kind::kVmem:
      rig.deflator = std::make_unique<vmem::VirtioMem>(rig.vm.get());
      break;
    case Kind::kHyperAlloc:
      rig.deflator = std::make_unique<core::HyperAllocMonitor>(
          rig.vm.get(), core::HyperAllocConfig{});
      break;
  }
  rig.pool = std::make_unique<workloads::MemoryPool>(rig.vm.get());
  return rig;
}

sim::Time MeasureShrink(Kind kind) {
  Rig rig = MakeRig(kind);
  const uint64_t region = rig.pool->AllocRegion(3 * kGiB, 0.9, 0);
  rig.pool->FreeRegion(region, 0);
  rig.vm->PurgeAllocatorCaches();
  const sim::Time t = rig.SetLimit(kShrunk);
  EXPECT_EQ(rig.deflator->limit_bytes(), kShrunk);
  return t;
}

TEST(Integration, ReclaimSpeedOrderingMatchesFig4) {
  // Fig. 4: HyperAlloc > balloon-huge > virtio-mem >> virtio-balloon.
  const sim::Time balloon = MeasureShrink(Kind::kBalloon);
  const sim::Time balloon_huge = MeasureShrink(Kind::kBalloonHuge);
  const sim::Time vmem = MeasureShrink(Kind::kVmem);
  const sim::Time hyperalloc = MeasureShrink(Kind::kHyperAlloc);

  EXPECT_LT(hyperalloc, balloon_huge);
  EXPECT_LT(balloon_huge, vmem);
  EXPECT_LT(vmem, balloon);
  // The headline: two-plus orders of magnitude vs 4 KiB ballooning.
  EXPECT_GT(balloon / hyperalloc, 100u);
}

TEST(Integration, ReclaimUntouchedFasterThanTouched) {
  for (const Kind kind : {Kind::kBalloonHuge, Kind::kHyperAlloc}) {
    Rig rig = MakeRig(kind);
    const uint64_t region = rig.pool->AllocRegion(3 * kGiB, 0.9, 0);
    rig.pool->FreeRegion(region, 0);
    rig.vm->PurgeAllocatorCaches();
    const sim::Time touched = rig.SetLimit(kShrunk);
    rig.SetLimit(kVmBytes);
    const sim::Time untouched = rig.SetLimit(kShrunk);
    EXPECT_LT(untouched, touched);
  }
}

TEST(Integration, HyperAllocReturnIsNearlyFree) {
  Rig rig = MakeRig(Kind::kHyperAlloc);
  rig.SetLimit(kShrunk);
  const sim::Time grow = rig.SetLimit(kVmBytes);
  // 1.5k huge frames at ~229 ns each: well under a millisecond.
  EXPECT_LT(grow, sim::kMs);
  EXPECT_EQ(rig.vm->rss_bytes(), 0u);  // lazy: nothing populated
}

class LiveSetListener : public guest::MigrationListener {
 public:
  explicit LiveSetListener(std::vector<std::pair<FrameId, unsigned>>* live)
      : live_(live) {}
  void OnFrameMigrated(FrameId old_head, FrameId new_head,
                       unsigned order) override {
    for (auto& [frame, frame_order] : *live_) {
      if (frame == old_head && frame_order == order) {
        frame = new_head;
        return;
      }
    }
  }

 private:
  std::vector<std::pair<FrameId, unsigned>>* live_;
};

TEST(Integration, GuestSurvivesResizeUnderLoad) {
  // Shrink and grow while the guest keeps allocating/freeing: no OOM, no
  // corruption, all memory recovered (every candidate).
  for (const Kind kind :
       {Kind::kBalloon, Kind::kBalloonHuge, Kind::kVmem,
        Kind::kHyperAlloc}) {
    Rig rig = MakeRig(kind);
    Rng rng(3);
    std::vector<std::pair<FrameId, unsigned>> live;
    LiveSetListener listener(&live);
    rig.vm->AddMigrationListener(&listener);  // virtio-mem may migrate
    bool resize_done = false;
    rig.deflator->Request(
        {.target_bytes = kShrunk, .done = [&] { resize_done = true; }});
    int guard = 0;
    while ((!resize_done || guard < 4000) && ++guard < 40000) {
      rig.sim->Step();
      if (guard % 3 == 0 && rng.Chance(0.6)) {
        const unsigned order = rng.Chance(0.2) ? kHugeOrder : 0;
        const Result<FrameId> r =
            rig.vm->Alloc(order, AllocType::kMovable, 0);
        if (r.ok()) {
          live.emplace_back(*r, order);
        }
      } else if (!live.empty()) {
        const size_t idx = rng.Below(live.size());
        rig.vm->Free(live[idx].first, live[idx].second, 0);
        live[idx] = live.back();
        live.pop_back();
      }
    }
    EXPECT_TRUE(resize_done) << "candidate " << static_cast<int>(kind);
    // Guest memory stays consistent.
    for (const auto& [frame, order] : live) {
      rig.vm->Free(frame, order, 0);
    }
    rig.vm->PurgeAllocatorCaches();
    EXPECT_EQ(rig.vm->FreeFrames() * kFrameSize,
              rig.deflator->limit_bytes())
        << "candidate " << static_cast<int>(kind);
  }
}

TEST(Integration, AutoReclaimFootprintOrdering) {
  // A burst workload allocates, holds, frees; with auto reclamation the
  // host gets the memory back — HyperAlloc at least as fast and complete
  // as free-page reporting.
  uint64_t rss_after[2] = {0, 0};
  int idx = 0;
  for (const Kind kind : {Kind::kBalloonHuge, Kind::kHyperAlloc}) {
    Rig rig = MakeRig(kind);
    rig.deflator->StartAuto();
    const uint64_t region = rig.pool->AllocRegion(3 * kGiB, 0.5, 0);
    rig.sim->RunUntil(rig.sim->now() + 10 * sim::kSec);
    EXPECT_GE(rig.vm->rss_bytes(), 3 * kGiB);
    rig.pool->FreeRegion(region, 0);
    rig.vm->PurgeAllocatorCaches();
    rig.sim->RunUntil(rig.sim->now() + 30 * sim::kSec);
    rss_after[idx++] = rig.vm->rss_bytes();
    rig.deflator->StopAuto();
  }
  EXPECT_LE(rss_after[1], rss_after[0])
      << "HyperAlloc must reclaim at least as much as free-page reporting";
  EXPECT_LT(rss_after[1], kGiB / 2);
}

TEST(Integration, VmemMigratesBusyBlocksDuringShrink) {
  Rig rig = MakeRig(Kind::kVmem);
  // Occupy scattered movable frames so unplugging must migrate.
  const uint64_t region = rig.pool->AllocRegion(kGiB, 0.0, 0);
  const sim::Time t = rig.SetLimit(2 * kGiB);
  (void)t;
  EXPECT_EQ(rig.deflator->limit_bytes(), 2 * kGiB);
  EXPECT_GT(rig.vm->migrated_frames(), 0u);
  // The region must still be fully intact (pool followed the moves).
  EXPECT_EQ(rig.pool->RegionBytes(region), kGiB);
  rig.pool->FreeRegion(region, 0);
  EXPECT_EQ(rig.vm->FreeFrames() * kFrameSize, 2 * kGiB);
}

TEST(Integration, DmaSafetyMatrix) {
  // Table 1's DMA-safety column, verified end to end: only virtio-mem
  // and HyperAlloc allow passthrough; both keep every allocated frame
  // DMA-accessible across a full shrink/grow cycle.
  for (const bool use_hyperalloc : {false, true}) {
    sim::Simulation sim;
    hv::HostMemory host(FramesForBytes(16 * kGiB));
    guest::GuestConfig config;
    config.memory_bytes = kVmBytes;
    config.vcpus = 4;
    config.dma32_bytes = 0;
    config.vfio = true;
    std::unique_ptr<hv::Deflator> deflator;
    if (use_hyperalloc) {
      config.allocator = guest::AllocatorKind::kLLFree;
    } else {
      config.movable_bytes = kVmBytes - kGiB;
    }
    guest::GuestVm vm(&sim, &host, config);
    if (use_hyperalloc) {
      deflator = std::make_unique<core::HyperAllocMonitor>(
          &vm, core::HyperAllocConfig{});
    } else {
      deflator = std::make_unique<vmem::VirtioMem>(&vm);
    }
    EXPECT_TRUE(deflator->caps().dma_safe);

    bool done = false;
    deflator->Request({.target_bytes = 2 * kGiB, .done = [&] { done = true; }});
    while (!done) {
      sim.Step();
    }
    for (int i = 0; i < 64; ++i) {
      const Result<FrameId> r = vm.Alloc(kHugeOrder, AllocType::kHuge, 0);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(vm.DmaWrite(*r, kFramesPerHuge))
          << (use_hyperalloc ? "HyperAlloc" : "virtio-mem") << " frame "
          << *r;
    }
  }
}

}  // namespace
}  // namespace hyperalloc

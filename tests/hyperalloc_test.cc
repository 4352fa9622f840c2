// Tests for the HyperAlloc monitor: install-on-allocate, hard/soft
// reclamation, return, DMA safety, and the auto-reclamation daemon —
// the protocol of paper §3.2/§3.3 end to end against a simulated guest.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/hyperalloc.h"
#include "src/guest/guest_vm.h"

namespace hyperalloc::core {
namespace {

constexpr uint64_t kVmBytes = 256 * kMiB;

class HyperAllocTest : public ::testing::Test {
 protected:
  void Init(bool vfio = false, uint64_t vm_bytes = kVmBytes,
            const HyperAllocConfig& monitor = {}) {
    sim_ = std::make_unique<sim::Simulation>();
    host_ = std::make_unique<hv::HostMemory>(
        FramesForBytes(std::max<uint64_t>(kGiB, vm_bytes)));
    guest::GuestConfig config;
    config.memory_bytes = vm_bytes;
    config.vcpus = 4;
    config.dma32_bytes = 64 * kMiB;
    config.allocator = guest::AllocatorKind::kLLFree;
    config.vfio = vfio;
    vm_ = std::make_unique<guest::GuestVm>(sim_.get(), host_.get(), config);
    monitor_ = std::make_unique<HyperAllocMonitor>(vm_.get(), monitor);
  }

  // Synchronously runs a limit change to completion.
  void SetLimit(uint64_t bytes) {
    bool done = false;
    monitor_->Request({.target_bytes = bytes, .done = [&] { done = true; }});
    while (!done) {
      ASSERT_TRUE(sim_->Step());
    }
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<hv::HostMemory> host_;
  std::unique_ptr<guest::GuestVm> vm_;
  std::unique_ptr<HyperAllocMonitor> monitor_;
};

TEST_F(HyperAllocTest, BootStateAllSoftReclaimed) {
  Init();
  EXPECT_EQ(monitor_->limit_bytes(), kVmBytes);
  EXPECT_EQ(vm_->rss_bytes(), 0u);
  for (HugeId h = 0; h < HugesForFrames(vm_->total_frames()); ++h) {
    EXPECT_EQ(monitor_->StateOf(h), ReclaimState::kSoft);
  }
  // Every area carries the evicted hint.
  for (guest::Zone& zone : vm_->zones()) {
    EXPECT_EQ(zone.llfree->EvictedAreas(), zone.frames / kFramesPerHuge);
  }
}

TEST_F(HyperAllocTest, AllocationInstallsHugeFrame) {
  Init();
  const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(monitor_->installs(), 1u);
  // The whole covering huge frame is now backed (install granularity).
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize);
  EXPECT_EQ(monitor_->StateOf(FrameToHuge(*r)), ReclaimState::kInstalled);
  // The install happened before the allocation returned: no EPT faults.
  vm_->Touch(*r, 1);
  EXPECT_EQ(vm_->ept_faults_2m(), 0u);
  EXPECT_EQ(vm_->ept_faults_4k(), 0u);
}

TEST_F(HyperAllocTest, SecondAllocationInSameAreaNoInstall) {
  Init();
  ASSERT_TRUE(vm_->Alloc(0, AllocType::kMovable).ok());
  ASSERT_TRUE(vm_->Alloc(0, AllocType::kMovable).ok());
  EXPECT_EQ(monitor_->installs(), 1u);
}

TEST_F(HyperAllocTest, InstallAdvancesVirtualTime) {
  Init();
  const sim::Time before = sim_->now();
  ASSERT_TRUE(vm_->Alloc(kHugeOrder, AllocType::kHuge).ok());
  // install hypercall + 512 * populate.
  const sim::Time cost = sim_->now() - before;
  EXPECT_GE(cost, vm_->costs().install_hypercall_2m_ns +
                      kFramesPerHuge * vm_->costs().populate_4k_ns);
}

TEST_F(HyperAllocTest, HardShrinkReducesLimitAndRss) {
  Init();
  // Populate and free 128 MiB so there is mapped, reclaimable memory.
  std::vector<FrameId> frames;
  for (int i = 0; i < 64; ++i) {
    const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
    ASSERT_TRUE(r.ok());
    vm_->Touch(*r, kFramesPerHuge);
    frames.push_back(*r);
  }
  for (const FrameId f : frames) {
    vm_->Free(f, kHugeOrder);
  }
  EXPECT_EQ(vm_->rss_bytes(), 128 * kMiB);

  vm_->PurgeAllocatorCaches();  // hypervisor-requested cache purge (§3.3)
  // Shrink to zero: every free huge frame — including the 128 MiB of
  // host-backed ones — must be reclaimed and unmapped.
  SetLimit(0);
  EXPECT_EQ(monitor_->limit_bytes(), 0u);
  EXPECT_EQ(monitor_->hard_reclaimed_bytes(), kVmBytes);
  EXPECT_EQ(vm_->rss_bytes(), 0u);
  EXPECT_EQ(host_->used_frames(), 0u);
}

TEST_F(HyperAllocTest, ShrinkLimitsGuestAllocations) {
  Init();
  SetLimit(64 * kMiB);
  // The guest can now allocate at most 64 MiB.
  uint64_t allocated = 0;
  while (vm_->Alloc(kHugeOrder, AllocType::kHuge).ok()) {
    allocated += kHugeSize;
  }
  EXPECT_EQ(allocated, 64 * kMiB);
}

TEST_F(HyperAllocTest, GrowReturnsMemoryLazily) {
  Init();
  SetLimit(64 * kMiB);
  const uint64_t rss_before = vm_->rss_bytes();
  SetLimit(kVmBytes);
  EXPECT_EQ(monitor_->limit_bytes(), kVmBytes);
  // Return is pure state work: no host memory was populated.
  EXPECT_EQ(vm_->rss_bytes(), rss_before);
  // The guest can use the full memory again (installs on demand).
  uint64_t allocated = 0;
  while (vm_->Alloc(kHugeOrder, AllocType::kHuge).ok()) {
    allocated += kHugeSize;
  }
  EXPECT_EQ(allocated, kVmBytes);
  EXPECT_EQ(vm_->rss_bytes(), kVmBytes);
}

TEST_F(HyperAllocTest, DeadlineFinishesAMultiSliceGrowPartially) {
  // Returning 768 huge frames takes twelve 64-frame slices; the second
  // one starts after the 1 ns deadline.
  HyperAllocConfig config;
  config.hugepages_per_slice = 64;
  Init(/*vfio=*/false, 2 * kGiB, config);
  SetLimit(512 * kMiB);
  bool done = false;
  monitor_->Request({.target_bytes = 2 * kGiB,
                     .deadline_ns = 1,
                     .done = [&] { done = true; }});
  while (!done) {
    ASSERT_TRUE(sim_->Step());
  }
  const hv::ResizeOutcome& o = monitor_->last_outcome();
  EXPECT_TRUE(o.timed_out);
  EXPECT_FALSE(o.complete);
  EXPECT_EQ(o.achieved_bytes, 512 * kMiB + 64 * kHugeSize);
  EXPECT_EQ(monitor_->limit_bytes(), o.achieved_bytes);
  EXPECT_FALSE(monitor_->busy());
}

TEST_F(HyperAllocTest, ReclaimUntouchedSkipsUnmap) {
  Init();
  // Nothing was ever touched: shrinking must not issue any EPT unmaps.
  const uint64_t unmaps_before = vm_->ept().total_unmapped_ops();
  SetLimit(64 * kMiB);
  EXPECT_EQ(vm_->ept().total_unmapped_ops(), unmaps_before);
  // And it is fast: only state transitions were charged.
  EXPECT_GT(monitor_->hard_reclaimed_bytes(), 0u);
}

TEST_F(HyperAllocTest, ShrinkEscalatesThroughGuestCaches) {
  Init();
  // Fill everything with page cache; a hard shrink must still succeed by
  // inducing pressure (cache purge + page-cache eviction, §3.3).
  vm_->CacheAdd(kVmBytes);
  ASSERT_GT(vm_->cache_bytes(), 200 * kMiB);
  SetLimit(64 * kMiB);
  EXPECT_EQ(monitor_->limit_bytes(), 64 * kMiB);
  EXPECT_LE(vm_->rss_bytes(), 64 * kMiB);
  EXPECT_LE(vm_->cache_bytes(), 64 * kMiB);
}

TEST_F(HyperAllocTest, AutoReclaimShrinksFreedMemory) {
  Init();
  // Allocate + touch 64 MiB, then free it: RSS stays until the daemon
  // runs.
  std::vector<FrameId> frames;
  for (int i = 0; i < 32; ++i) {
    const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
    ASSERT_TRUE(r.ok());
    frames.push_back(*r);
  }
  for (const FrameId f : frames) {
    vm_->Free(f, kHugeOrder);
  }
  EXPECT_EQ(vm_->rss_bytes(), 64 * kMiB);
  const uint64_t reclaimed = monitor_->AutoReclaimPass();
  EXPECT_EQ(reclaimed, 32u);
  EXPECT_EQ(vm_->rss_bytes(), 0u);
  // Soft: the memory stays available to the guest.
  EXPECT_EQ(monitor_->limit_bytes(), kVmBytes);
  EXPECT_TRUE(vm_->Alloc(kHugeOrder, AllocType::kHuge).ok());
}

TEST_F(HyperAllocTest, AutoReclaimSkipsUsedMemory) {
  Init();
  const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(monitor_->AutoReclaimPass(), 0u);
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize);
}

TEST_F(HyperAllocTest, AutoReclaimPartiallyUsedAreasStay) {
  Init();
  // One 4 KiB allocation keeps its whole huge frame installed.
  const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(monitor_->AutoReclaimPass(), 0u);
  // Free it: now the area is reclaimable.
  vm_->Free(*r, 0);
  vm_->PurgeAllocatorCaches();
  EXPECT_EQ(monitor_->AutoReclaimPass(), 1u);
}

TEST_F(HyperAllocTest, AutoDaemonRunsPeriodically) {
  Init();
  const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r.ok());
  vm_->Free(*r, kHugeOrder);
  monitor_->StartAuto();
  sim_->RunUntil(6 * sim::kSec);  // one 5 s period elapsed
  EXPECT_EQ(monitor_->soft_reclaims(), 1u);
  EXPECT_EQ(vm_->rss_bytes(), 0u);
  monitor_->StopAuto();
}

TEST_F(HyperAllocTest, ScanCostMatchesPaperFormula) {
  Init();
  monitor_->AutoReclaimPass();
  // §3.3: 18 cache lines per GiB => 256 MiB of guest memory costs
  // 18 * 256/1024 = 4.5 lines, rounded up per zone.
  const uint64_t lines = monitor_->scan_cache_lines_total();
  EXPECT_GE(lines, 4u);
  EXPECT_LE(lines, 8u);  // rounding per zone array
}

// ---------------------------------------------------------------------
// DMA safety (VFIO device passthrough)
// ---------------------------------------------------------------------

TEST_F(HyperAllocTest, InstallPinsIommu) {
  Init(/*vfio=*/true);
  const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r.ok());
  // The frame was pinned during install, *before* the allocation
  // returned: DMA is safe immediately.
  EXPECT_TRUE(vm_->DmaWrite(*r, kFramesPerHuge));
  EXPECT_EQ(vm_->iommu()->pinned_huge(), 1u);
}

TEST_F(HyperAllocTest, ReclaimUnpinsIommu) {
  Init(/*vfio=*/true);
  const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r.ok());
  vm_->Free(*r, kHugeOrder);
  vm_->PurgeAllocatorCaches();
  ASSERT_EQ(monitor_->AutoReclaimPass(), 1u);
  EXPECT_EQ(vm_->iommu()->pinned_huge(), 0u);
  // A non-conforming guest that DMAs into the reclaimed (free) frame
  // fails — but only hurts itself (§3.2 "Invalid Guest States").
  EXPECT_FALSE(vm_->DmaWrite(*r, 1));
}

TEST_F(HyperAllocTest, ReinstallAfterSoftReclaimRestoresDma) {
  Init(/*vfio=*/true);
  const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r.ok());
  vm_->Free(*r, kHugeOrder);
  vm_->PurgeAllocatorCaches();
  ASSERT_EQ(monitor_->AutoReclaimPass(), 1u);
  // Allocate again: install must re-pin before the allocation returns.
  const Result<FrameId> r2 = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(vm_->DmaWrite(*r2, kFramesPerHuge));
}

TEST_F(HyperAllocTest, EveryAllocatedFrameIsDmaSafe) {
  // Property: under VFIO, any frame the guest allocator hands out is
  // immediately DMA-safe — the paper's core safety claim.
  Init(/*vfio=*/true);
  for (int i = 0; i < 200; ++i) {
    const unsigned order = (i % 4 == 0) ? kHugeOrder : 0;
    const Result<FrameId> r = vm_->Alloc(order, AllocType::kMovable);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(vm_->DmaWrite(*r, 1ull << order)) << "frame " << *r;
  }
}

TEST_F(HyperAllocTest, StateTransitionsFollowFig2) {
  Init();
  guest::Zone& zone = vm_->zones()[1];  // Normal zone
  const HugeId global0 = FrameToHuge(zone.start);
  // Boot: Soft (E=1, A=0).
  EXPECT_EQ(monitor_->StateOf(global0), ReclaimState::kSoft);
  // Guest allocates: install => Installed, E=0, A=1.
  const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r.ok());
  const HugeId local = FrameToHuge(*r - zone.start);
  EXPECT_EQ(monitor_->StateOf(FrameToHuge(*r)), ReclaimState::kInstalled);
  EXPECT_FALSE(zone.llfree->ReadArea(local).evicted);
  EXPECT_TRUE(zone.llfree->ReadArea(local).allocated);
  // Guest frees: still Installed (M=1), A=0.
  vm_->Free(*r, kHugeOrder);
  EXPECT_FALSE(zone.llfree->ReadArea(local).allocated);
  // Hard reclaim (shrink everything so this frame is covered):
  // Hard, A=1, E=1.
  vm_->PurgeAllocatorCaches();
  SetLimit(0);
  EXPECT_EQ(monitor_->StateOf(FrameToHuge(*r)), ReclaimState::kHard);
  EXPECT_TRUE(zone.llfree->ReadArea(local).allocated);
  EXPECT_TRUE(zone.llfree->ReadArea(local).evicted);
  // Return: Soft, A=0, E=1.
  SetLimit(kVmBytes);
  EXPECT_EQ(monitor_->StateOf(FrameToHuge(*r)), ReclaimState::kSoft);
  EXPECT_FALSE(zone.llfree->ReadArea(local).allocated);
  EXPECT_TRUE(zone.llfree->ReadArea(local).evicted);
}

TEST_F(HyperAllocTest, InitialLimitBootsSmallGrowsLater) {
  // 6 "Beyond Memory Reclamation": a VM boots with a 64 MiB hard limit
  // on 256 MiB of guest-physical memory and later grows beyond its
  // boot-time allotment.
  sim_ = std::make_unique<sim::Simulation>();
  host_ = std::make_unique<hv::HostMemory>(FramesForBytes(kGiB));
  guest::GuestConfig config;
  config.memory_bytes = kVmBytes;
  config.vcpus = 4;
  config.dma32_bytes = 64 * kMiB;
  config.allocator = guest::AllocatorKind::kLLFree;
  vm_ = std::make_unique<guest::GuestVm>(sim_.get(), host_.get(), config);
  HyperAllocConfig ha;
  ha.initial_limit_bytes = 64 * kMiB;
  monitor_ = std::make_unique<HyperAllocMonitor>(vm_.get(), ha);

  EXPECT_EQ(monitor_->limit_bytes(), 64 * kMiB);
  uint64_t allocated = 0;
  while (vm_->Alloc(kHugeOrder, AllocType::kHuge).ok()) {
    allocated += kHugeSize;
  }
  EXPECT_EQ(allocated, 64 * kMiB);

  // Grow beyond the boot allotment.
  SetLimit(kVmBytes);
  while (vm_->Alloc(kHugeOrder, AllocType::kHuge).ok()) {
    allocated += kHugeSize;
  }
  EXPECT_EQ(allocated, kVmBytes);
}

TEST_F(HyperAllocTest, TreeTypesVisibleToHost) {
  // 6 swap-strategy hook: the host can read each tree's allocation type
  // from the shared state without guest interaction.
  Init();
  const Result<FrameId> movable = vm_->Alloc(0, AllocType::kMovable);
  const Result<FrameId> unmovable = vm_->Alloc(0, AllocType::kUnmovable);
  ASSERT_TRUE(movable.ok());
  ASSERT_TRUE(unmovable.ok());
  EXPECT_EQ(monitor_->TreeTypeOf(FrameToHuge(*movable)),
            AllocType::kMovable);
  EXPECT_EQ(monitor_->TreeTypeOf(FrameToHuge(*unmovable)),
            AllocType::kUnmovable);
}

}  // namespace
}  // namespace hyperalloc::core

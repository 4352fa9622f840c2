// Unit tests for the GuestVm composition: zones, allocation routing,
// pressure-driven page-cache eviction, THP-style EPT population, DMA, and
// migration support.
#include <gtest/gtest.h>

#include <set>

#include "src/guest/guest_vm.h"

namespace hyperalloc::guest {
namespace {

constexpr uint64_t kVmBytes = 256 * kMiB;

class GuestVmTest : public ::testing::Test {
 protected:
  void Init(GuestConfig config) {
    sim_ = std::make_unique<sim::Simulation>();
    host_ = std::make_unique<hv::HostMemory>(FramesForBytes(kGiB));
    vm_ = std::make_unique<GuestVm>(sim_.get(), host_.get(), config);
  }

  GuestConfig SmallBuddy() {
    GuestConfig config;
    config.memory_bytes = kVmBytes;
    config.vcpus = 4;
    config.dma32_bytes = 64 * kMiB;
    return config;
  }

  GuestConfig SmallLLFree() {
    GuestConfig config = SmallBuddy();
    config.allocator = AllocatorKind::kLLFree;
    return config;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<hv::HostMemory> host_;
  std::unique_ptr<GuestVm> vm_;
};

TEST_F(GuestVmTest, ZoneLayoutBuddy) {
  Init(SmallBuddy());
  ASSERT_EQ(vm_->zones().size(), 2u);
  EXPECT_EQ(vm_->zones()[0].kind, ZoneKind::kDma32);
  EXPECT_EQ(vm_->zones()[0].frames, FramesForBytes(64 * kMiB));
  EXPECT_EQ(vm_->zones()[1].kind, ZoneKind::kNormal);
  EXPECT_EQ(vm_->total_frames(), FramesForBytes(kVmBytes));
  EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
}

TEST_F(GuestVmTest, ZoneLayoutWithMovable) {
  GuestConfig config = SmallBuddy();
  config.dma32_bytes = 0;
  config.movable_bytes = 128 * kMiB;
  Init(config);
  ASSERT_EQ(vm_->zones().size(), 2u);
  EXPECT_EQ(vm_->zones()[0].kind, ZoneKind::kNormal);
  EXPECT_EQ(vm_->zones()[1].kind, ZoneKind::kMovable);
  EXPECT_EQ(vm_->zones()[1].frames, FramesForBytes(128 * kMiB));
}

TEST_F(GuestVmTest, UnmovableAllocationsAvoidMovableZone) {
  GuestConfig config = SmallBuddy();
  config.dma32_bytes = 0;
  config.movable_bytes = 128 * kMiB;
  Init(config);
  const Zone& movable = vm_->zones()[1];
  for (int i = 0; i < 1000; ++i) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kUnmovable);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(movable.Contains(*r));
  }
}

TEST_F(GuestVmTest, MovableAllocationsPreferMovableZone) {
  GuestConfig config = SmallBuddy();
  config.dma32_bytes = 0;
  config.movable_bytes = 128 * kMiB;
  Init(config);
  const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(vm_->zones()[1].Contains(*r));
}

TEST_F(GuestVmTest, AllocFreeRoundTripBothAllocators) {
  for (const AllocatorKind kind :
       {AllocatorKind::kBuddy, AllocatorKind::kLLFree}) {
    GuestConfig config = SmallBuddy();
    config.allocator = kind;
    Init(config);
    const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames() - kFramesPerHuge);
    vm_->Free(*r, kHugeOrder);
    EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
  }
}

TEST_F(GuestVmTest, PressureEvictsPageCache) {
  Init(SmallBuddy());
  // Fill (nearly) all memory with page cache, then demand far more than
  // the watermark headroom: reclaim must evict cache rather than fail.
  vm_->CacheAdd(kVmBytes);
  EXPECT_GT(vm_->cache_bytes(), kVmBytes / 2);
  const uint64_t cache_before = vm_->cache_bytes();
  for (int i = 0; i < 32; ++i) {  // 64 MiB of huge allocations
    const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
    ASSERT_TRUE(r.ok()) << "allocation " << i;
  }
  EXPECT_LT(vm_->cache_bytes(), cache_before);
  EXPECT_GT(vm_->cache_evictions(), 0u);
  EXPECT_EQ(vm_->oom_events(), 0u);
}

TEST_F(GuestVmTest, OomWhenNothingReclaimable) {
  Init(SmallBuddy());
  // Exhaust memory with unreclaimable (non-cache) allocations.
  uint64_t allocated = 0;
  for (;;) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kUnmovable);
    if (!r.ok()) {
      break;
    }
    ++allocated;
  }
  EXPECT_EQ(allocated, vm_->total_frames());
  EXPECT_GT(vm_->oom_events(), 0u);
}

TEST_F(GuestVmTest, TouchPopulatesThpGranularity) {
  Init(SmallBuddy());
  EXPECT_EQ(vm_->rss_bytes(), 0u);
  // First touch of one 4 KiB page in a pristine huge frame populates the
  // whole 2 MiB (THP) with a single 2 MiB fault.
  vm_->Touch(0, 1);
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize);
  EXPECT_EQ(vm_->ept_faults_2m(), 1u);
  EXPECT_EQ(vm_->ept_faults_4k(), 0u);
  // Touching the rest of the huge frame faults nothing further.
  vm_->Touch(0, kFramesPerHuge);
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize);
  EXPECT_EQ(vm_->ept_faults_2m(), 1u);
}

TEST_F(GuestVmTest, PartiallyUnmappedHugeFramesFaultAt4k) {
  Init(SmallBuddy());
  vm_->Touch(0, kFramesPerHuge);  // populate 2 MiB
  vm_->ept().Unmap(0, 64);        // balloon-style 4 KiB holes
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize - 64 * kFrameSize);
  vm_->Touch(0, 64);
  EXPECT_EQ(vm_->ept_faults_4k(), 64u);
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize);
}

TEST_F(GuestVmTest, TouchAdvancesVirtualTime) {
  Init(SmallBuddy());
  const sim::Time before = sim_->now();
  vm_->Touch(0, kFramesPerHuge);
  EXPECT_GT(sim_->now(), before);
  EXPECT_GT(vm_->fault_time(), 0u);
}

TEST_F(GuestVmTest, EmulatedDmaAlwaysSucceeds) {
  Init(SmallBuddy());
  EXPECT_TRUE(vm_->DmaWrite(0, 16));
  EXPECT_GT(vm_->rss_bytes(), 0u);  // the device write faulted memory in
}

TEST_F(GuestVmTest, PassthroughDmaRequiresPinning) {
  GuestConfig config = SmallBuddy();
  config.vfio = true;
  Init(config);
  ASSERT_NE(vm_->iommu(), nullptr);
  EXPECT_FALSE(vm_->DmaWrite(0, 16)) << "unpinned frame must fail DMA";
  vm_->iommu()->Pin(0);
  EXPECT_TRUE(vm_->DmaWrite(0, 16));
  EXPECT_FALSE(vm_->DmaWrite(0, kFramesPerHuge + 1))
      << "range extending into an unpinned huge frame must fail";
}

TEST_F(GuestVmTest, CacheAddDropAccounting) {
  Init(SmallBuddy());
  vm_->CacheAdd(8 * kMiB);
  EXPECT_EQ(vm_->cache_bytes(), 8 * kMiB);
  EXPECT_EQ(vm_->AllocatedFrames(), FramesForBytes(8 * kMiB));
  vm_->CacheDrop(3 * kMiB);
  EXPECT_EQ(vm_->cache_bytes(), 5 * kMiB);
  vm_->DropCaches();
  EXPECT_EQ(vm_->cache_bytes(), 0u);
  EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
}

TEST_F(GuestVmTest, RssTracksHostUsage) {
  Init(SmallBuddy());
  EXPECT_EQ(host_->used_frames(), 0u);
  vm_->Touch(0, 1024);
  EXPECT_EQ(host_->used_frames(), 1024u);
  EXPECT_EQ(vm_->rss_bytes(), 1024 * kFrameSize);
  vm_->ept().Unmap(0, 1024);
  EXPECT_EQ(host_->used_frames(), 0u);
}

class TrackingListener : public MigrationListener {
 public:
  void OnFrameMigrated(FrameId old_head, FrameId new_head,
                       unsigned order) override {
    moves.emplace_back(old_head, new_head);
    (void)order;
  }
  std::vector<std::pair<FrameId, FrameId>> moves;
};

TEST_F(GuestVmTest, MigrateRangeMovesAllocations) {
  GuestConfig config = SmallBuddy();
  config.dma32_bytes = 0;
  config.movable_bytes = 128 * kMiB;
  config.buddy_config.pcp_enabled = false;
  Init(config);
  TrackingListener listener;
  vm_->AddMigrationListener(&listener);

  // Allocate a movable frame, find its block, and migrate that block.
  const Result<FrameId> victim = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(victim.ok());
  Zone& zone = vm_->ZoneOf(*victim);
  ASSERT_EQ(zone.kind, ZoneKind::kMovable);
  const FrameId block = AlignDown(*victim, kFramesPerHuge);
  zone.buddy->ClaimFreeInRange(block - zone.start, kFramesPerHuge);

  uint64_t migrated = 0;
  ASSERT_TRUE(vm_->MigrateRange(block, kFramesPerHuge, 0, &migrated));
  EXPECT_EQ(migrated, 1u);
  ASSERT_EQ(listener.moves.size(), 1u);
  EXPECT_EQ(listener.moves[0].first, *victim);
  const FrameId moved_to = listener.moves[0].second;
  EXPECT_TRUE(moved_to < block || moved_to >= block + kFramesPerHuge);
  // The new frame is a valid allocation; the old range is fully claimed.
  vm_->Free(moved_to, 0);
  EXPECT_EQ(zone.buddy->AllocatedInRange(block - zone.start, kFramesPerHuge)
                .size(),
            kFramesPerHuge);
}

TEST_F(GuestVmTest, MigrationUpdatesPageCache) {
  GuestConfig config = SmallBuddy();
  config.dma32_bytes = 0;
  config.movable_bytes = 128 * kMiB;
  config.buddy_config.pcp_enabled = false;
  Init(config);
  vm_->CacheAdd(4 * kMiB);
  const uint64_t cache_before = vm_->cache_bytes();

  // Evacuate the whole Movable zone; the cache pages living there must
  // move (to the Normal zone) with the cache bookkeeping following.
  Zone& zone = vm_->zones()[1];
  zone.buddy->ClaimFreeInRange(0, zone.frames);
  uint64_t migrated = 0;
  ASSERT_TRUE(vm_->MigrateRange(zone.start, zone.frames, 0, &migrated));
  EXPECT_EQ(migrated, FramesForBytes(4 * kMiB));
  EXPECT_EQ(vm_->cache_bytes(), cache_before);
  // Dropping the cache must free the *new* locations without errors.
  vm_->DropCaches();
  EXPECT_EQ(vm_->cache_bytes(), 0u);
}

TEST_F(GuestVmTest, PurgeAllocatorCachesDrainsPcp) {
  Init(SmallBuddy());
  const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  vm_->Free(*r, 0);
  Zone& zone = vm_->ZoneOf(*r);
  EXPECT_LT(zone.buddy->FreeFramesInLists(), zone.frames);
  vm_->PurgeAllocatorCaches();
  EXPECT_EQ(zone.buddy->FreeFramesInLists(), zone.frames);
}

TEST_F(GuestVmTest, LLFreeGuestSharesStateWithMonitorView) {
  Init(SmallLLFree());
  Zone& zone = vm_->zones()[1];
  ASSERT_NE(zone.llfree_state, nullptr);
  llfree::LLFree monitor(zone.llfree_state.get());
  const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(monitor.ReadArea(FrameToHuge(*r - zone.start)).allocated);
}

// E1's prepare in miniature: huge frames fill the Normal zone, then
// 4 KiB allocations still try Normal first (frame cache, batch, fallback
// steal) and land in DMA32. A second VM whose summaries are reset before
// every allocation must hand out exactly the same frames, and the full
// Normal zone ends with every summary bit clear, so its failing searches
// cost a few word loads instead of a walk of every tree.
TEST(GuestVmSummaryTest, FullNormalZoneFallsToDma32LikeFullWalks) {
  GuestConfig config;
  config.memory_bytes = 2 * kGiB;  // Normal: 124 trees, two summary words
  config.vcpus = 4;
  config.dma32_bytes = 64 * kMiB;
  config.allocator = AllocatorKind::kLLFree;
  sim::Simulation sim_a;
  sim::Simulation sim_b;
  hv::HostMemory host_a(FramesForBytes(4 * kGiB));
  hv::HostMemory host_b(FramesForBytes(4 * kGiB));
  GuestVm a(&sim_a, &host_a, config);
  GuestVm b(&sim_b, &host_b, config);
  ASSERT_EQ(a.zones().size(), 2u);
  ASSERT_EQ(a.zones()[1].kind, ZoneKind::kNormal);
  const llfree::SharedState& normal = *a.zones()[1].llfree_state;
  ASSERT_GT(normal.num_trees(), 64u);

  const auto alloc_both = [&](unsigned order, AllocType type) {
    for (Zone& zone : b.zones()) {
      zone.llfree_state->MarkEveryTreeOccupied();
    }
    const Result<FrameId> ra = a.Alloc(order, type);
    const Result<FrameId> rb = b.Alloc(order, type);
    EXPECT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(*ra, *rb);
    return *ra;
  };
  for (uint64_t i = 0; i < a.zones()[1].frames / kFramesPerHuge; ++i) {
    const FrameId frame = alloc_both(kHugeOrder, AllocType::kHuge);
    ASSERT_EQ(a.ZoneOf(frame).kind, ZoneKind::kNormal) << "huge " << i;
  }
  for (int i = 0; i < 3000; ++i) {
    const FrameId frame = alloc_both(0, AllocType::kMovable);
    ASSERT_EQ(a.ZoneOf(frame).kind, ZoneKind::kDma32) << "4 KiB " << i;
  }
  for (uint64_t w = 0; w < normal.summary_words(); ++w) {
    EXPECT_EQ(normal.tree_summary()[w].load(std::memory_order_relaxed), 0u)
        << "word " << w;
  }
  for (Zone& zone : a.zones()) {
    EXPECT_TRUE(llfree::LLFree(zone.llfree_state.get()).Validate());
  }
}

TEST_F(GuestVmTest, FreeWithWrongOrderAborts) {
  Init(SmallBuddy());
  const Result<FrameId> r = vm_->Alloc(3, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  EXPECT_DEATH(vm_->Free(*r, 2), "check failed");
}

TEST_F(GuestVmTest, DoubleFreeAborts) {
  Init(SmallBuddy());
  const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  vm_->Free(*r, 0);
  EXPECT_DEATH(vm_->Free(*r, 0), "check failed");
}

}  // namespace
}  // namespace hyperalloc::guest

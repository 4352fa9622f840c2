// Tests for the memory compactor: buddy-zone evacuation, and the LLFree
// huge-frame re-forming pass (DESIGN.md §4.14) including its behavior
// under injected EPT map faults.
#include <gtest/gtest.h>

#include <vector>

#include "src/fault/fault.h"
#include "src/guest/compaction.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::guest {
namespace {

class CompactionTest : public ::testing::Test {
 protected:
  void Init() {
    sim_ = std::make_unique<sim::Simulation>();
    host_ = std::make_unique<hv::HostMemory>(FramesForBytes(kGiB));
    GuestConfig config;
    config.memory_bytes = 256 * kMiB;
    config.vcpus = 2;
    config.dma32_bytes = 0;
    config.buddy_config.pcp_enabled = false;
    vm_ = std::make_unique<GuestVm>(sim_.get(), host_.get(), config);
  }

  void InitLLFree() {
    sim_ = std::make_unique<sim::Simulation>();
    host_ = std::make_unique<hv::HostMemory>(FramesForBytes(kGiB));
    GuestConfig config;
    config.memory_bytes = 256 * kMiB;
    config.vcpus = 2;
    config.dma32_bytes = 0;
    config.allocator = AllocatorKind::kLLFree;
    vm_ = std::make_unique<GuestVm>(sim_.get(), host_.get(), config);
  }

  // Two-pass churn (the §4.14 bench scenario): allocate 64-frame regions
  // over half of memory, then free 7 of every 8. Interleaving the frees
  // would let the allocator reuse them immediately; freeing after the
  // fact leaves each churned area one straggler run that blocks order-9
  // reclaim. Returns the kept region ids.
  std::vector<uint64_t> Churn(workloads::MemoryPool* pool,
                              AllocType type = AllocType::kMovable) {
    const uint64_t region_bytes = 64 * kFrameSize;
    const uint64_t regions =
        vm_->config().memory_bytes / 2 / region_bytes;
    std::vector<uint64_t> ids;
    for (uint64_t i = 0; i < regions; ++i) {
      const uint64_t id = pool->AllocRegion(region_bytes, 0.0, 0, type);
      if (id == 0) {
        break;
      }
      ids.push_back(id);
    }
    std::vector<uint64_t> kept;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i % 8 != 0) {
        pool->FreeRegion(ids[i], 0);
      } else {
        kept.push_back(ids[i]);
      }
    }
    vm_->PurgeAllocatorCaches();
    return kept;
  }

  // Fragments memory: fill with order-0, free all but one frame per
  // 2 MiB block => zero free huge frames.
  std::vector<FrameId> Fragment(AllocType pin_type) {
    std::vector<FrameId> all;
    for (;;) {
      const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
      if (!r.ok()) {
        break;
      }
      all.push_back(*r);
    }
    std::vector<FrameId> pins;
    for (const FrameId f : all) {
      if (f % kFramesPerHuge == 0) {
        // Convert the pin to the requested type by re-allocating it.
        vm_->Free(f, 0);
        pins.push_back(f);
      } else {
        vm_->Free(f, 0);
      }
    }
    // Re-allocate exactly the pin frames via targeted claim.
    std::vector<FrameId> held;
    for (const FrameId f : pins) {
      Zone& zone = vm_->ZoneOf(f);
      if (zone.buddy->ClaimRange(f - zone.start, 1)) {
        held.push_back(f);
      }
    }
    (void)pin_type;
    return held;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<hv::HostMemory> host_;
  std::unique_ptr<GuestVm> vm_;
};

TEST_F(CompactionTest, CompactsSparselyUsedBlocks) {
  Init();
  // One movable frame per huge block: no free huge frames at all.
  std::vector<std::pair<FrameId, unsigned>> pins;
  std::vector<FrameId> all;
  for (;;) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
    if (!r.ok()) {
      break;
    }
    all.push_back(*r);
  }
  for (const FrameId f : all) {
    if (f % kFramesPerHuge != 0) {
      vm_->Free(f, 0);
    } else {
      pins.emplace_back(f, 0);
    }
  }
  ASSERT_EQ(vm_->FreeHugeFrames(), 0u);

  Compactor compactor(vm_.get());
  const uint64_t freed = compactor.CompactPass(1000);
  EXPECT_GT(freed, 100u);
  EXPECT_GT(vm_->FreeHugeFrames(), 100u);
  EXPECT_EQ(compactor.blocks_compacted(), freed);
  // Pins were migrated, not lost: total allocated unchanged.
  EXPECT_EQ(vm_->AllocatedFrames(), pins.size());
}

TEST_F(CompactionTest, RefusesUnmovableBlocks) {
  Init();
  // Sprinkle unmovable pins instead.
  std::vector<FrameId> all;
  for (;;) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kUnmovable);
    if (!r.ok()) {
      break;
    }
    all.push_back(*r);
  }
  uint64_t held = 0;
  for (const FrameId f : all) {
    if (f % kFramesPerHuge != 0) {
      vm_->Free(f, 0);
    } else {
      ++held;
    }
  }
  ASSERT_GT(held, 0u);
  Compactor compactor(vm_.get());
  EXPECT_EQ(compactor.CompactPass(1000), 0u)
      << "unmovable kernel memory must not be migrated";
  EXPECT_EQ(vm_->FreeHugeFrames(), 0u);
}

TEST_F(CompactionTest, MigrationChargesTimeAndPreservesData) {
  Init();
  workloads::MemoryPool pool(vm_.get());
  // A 16 MiB region spread kMaxUsedFrames to a block, so every block it
  // touches is an evacuation candidate: interleave each block's share
  // with a filler that takes the rest of the block, then free the
  // fillers.
  const uint64_t share_bytes = kMaxUsedFrames * kFrameSize;
  const uint64_t filler_bytes = kHugeSize - share_bytes;
  const uint64_t region = pool.AllocRegion(share_bytes, 0.0, 0);
  std::vector<uint64_t> fillers = {pool.AllocRegion(filler_bytes, 0.0, 0)};
  while (pool.RegionBytes(region) < 16 * kMiB) {
    pool.GrowRegion(region, share_bytes, 0.0, 0);
    fillers.push_back(pool.AllocRegion(filler_bytes, 0.0, 0));
  }
  for (const uint64_t filler : fillers) {
    pool.FreeRegion(filler, 0);
  }
  Compactor compactor(vm_.get());
  const sim::Time before = sim_->now();
  EXPECT_EQ(compactor.CompactPass(4), 4u);
  EXPECT_GT(compactor.frames_migrated(), 0u);
  EXPECT_GT(sim_->now(), before) << "migration must cost virtual time";
  EXPECT_EQ(pool.RegionBytes(region), 16 * kMiB)
      << "the pool must track migrated frames";
  pool.FreeRegion(region, 0);
  EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
}

// ---------------------------------------------------------------------
// LLFree zones (§4.14): a pass isolates an area's free frames,
// migrates the stragglers out, and the re-formed huge frame becomes
// order-9 reclaimable again.
// ---------------------------------------------------------------------

TEST_F(CompactionTest, LLFreeCompactionReformsSplinteredHugeFrames) {
  InitLLFree();
  workloads::MemoryPool pool(vm_.get());
  const std::vector<uint64_t> kept = Churn(&pool);
  ASSERT_GT(kept.size(), 4u);

  const double frag_before = vm_->FragmentationScore();
  EXPECT_GT(frag_before, 0.2) << "churn failed to splinter any area";
  const uint64_t free_huge_before = vm_->FreeHugeFrames();
  const uint64_t allocated_before = vm_->AllocatedFrames();

  Compactor compactor(vm_.get());
  const uint64_t freed = compactor.CompactPass(~0ull);
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(compactor.blocks_compacted(), freed);
  EXPECT_GT(compactor.frames_migrated(), 0u);
  EXPECT_GT(vm_->FreeHugeFrames(), free_huge_before)
      << "no huge frame re-formed";
  EXPECT_LT(vm_->FragmentationScore(), frag_before);
  EXPECT_EQ(vm_->AllocatedFrames(), allocated_before)
      << "compaction must migrate stragglers, not lose or leak frames";

  // The stragglers' data survived the migration.
  for (const uint64_t id : kept) {
    EXPECT_EQ(pool.RegionBytes(id), 64 * kFrameSize);
  }
  for (const uint64_t id : kept) {
    pool.FreeRegion(id, 0);
  }
  vm_->PurgeAllocatorCaches();
  EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
}

TEST_F(CompactionTest, LLFreePassNeverMigratesUnmovableStragglers) {
  InitLLFree();
  workloads::MemoryPool pool(vm_.get());
  // Unmovable stragglers: every candidate area is pinned, so a pass can
  // never make progress.
  const std::vector<uint64_t> kept =
      Churn(&pool, AllocType::kUnmovable);
  const double frag_before = vm_->FragmentationScore();
  ASSERT_GT(frag_before, 0.25);

  Compactor compactor(vm_.get());
  EXPECT_EQ(compactor.CompactPass(~0ull), 0u);
  EXPECT_EQ(compactor.blocks_compacted(), 0u)
      << "unmovable stragglers must never be migrated";
  EXPECT_EQ(compactor.frames_migrated(), 0u);
  EXPECT_DOUBLE_EQ(vm_->FragmentationScore(), frag_before);
  (void)kept;
}

// Injected EPT map faults mid-compaction (the CI fault-smoke probe):
// a failed destination map must not corrupt the migration — the frame
// contents are tracked, nothing leaks, and the unbacked destination
// simply faults back in on its next touch (PopulateFrames' bounded
// retry, DESIGN.md §4.9/§4.14 demotion rules: the hole keeps the huge
// frame at 4 KiB granularity until re-touched).
TEST_F(CompactionTest, LLFreeCompactionSurvivesEptMapFaultMidMigration) {
  InitLLFree();
  workloads::MemoryPool pool(vm_.get());
  const std::vector<uint64_t> kept = Churn(&pool);
  const uint64_t allocated_before = vm_->AllocatedFrames();
  const double frag_before = vm_->FragmentationScore();

  // Model the post-shrink state a pass actually runs in: the host
  // evicted the guest's cold pages, so every migration destination has
  // to be EPT-mapped back in mid-pass — the map calls the fault plan
  // intercepts.
  vm_->ept().Unmap(0, vm_->total_frames());

  // Arm after churn so only the compaction pass sees faults.
  fault::Plan plan;
  plan.seed = 3;
  std::string error;
  ASSERT_TRUE(fault::Plan::Parse("ept_map:0.2", &plan, &error)) << error;
  fault::Injector injector(plan);
  vm_->SetFaultInjector(&injector);

  Compactor compactor(vm_.get());
  const uint64_t freed = compactor.CompactPass(~0ull);
  ASSERT_GT(injector.injected_total(), 0u)
      << "the armed plan never fired mid-compaction";
  EXPECT_GT(freed, 0u)
      << "transient map faults must not abort the evacuation";

  // Rollback invariants: no frame was lost or double-freed, and every
  // straggler region still owns its full size.
  EXPECT_EQ(vm_->AllocatedFrames(), allocated_before);
  EXPECT_LT(vm_->FragmentationScore(), frag_before);
  for (const uint64_t id : kept) {
    EXPECT_EQ(pool.RegionBytes(id), 64 * kFrameSize);
  }

  // The allocator stays coherent end to end: freeing everything returns
  // the VM to a whole, fully defragmented state.
  for (const uint64_t id : kept) {
    pool.FreeRegion(id, 0);
  }
  vm_->PurgeAllocatorCaches();
  EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
  EXPECT_EQ(vm_->FreeHugeFrames(), vm_->total_frames() / kFramesPerHuge);
  EXPECT_DOUBLE_EQ(vm_->FragmentationScore(), 0.0);
}

}  // namespace
}  // namespace hyperalloc::guest

// Tests for the generalized (buddy-backed) HyperAlloc monitor — paper §6
// "Concept Generalization": soft reclamation and install work through the
// auxiliary (A, E) interface; hard limits fall back to a guest-mediated
// path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/hyperalloc_generic.h"
#include "src/guest/guest_vm.h"

namespace hyperalloc::core {
namespace {

constexpr uint64_t kVmBytes = 256 * kMiB;

class GenericHyperAllocTest : public ::testing::Test {
 protected:
  void Init(bool vfio = false, uint64_t vm_bytes = kVmBytes) {
    monitor_.reset();
    vm_.reset();
    sim_ = std::make_unique<sim::Simulation>();
    host_ = std::make_unique<hv::HostMemory>(FramesForBytes(kGiB));
    guest::GuestConfig config;
    config.memory_bytes = vm_bytes;
    config.vcpus = 4;
    config.dma32_bytes = 64 * kMiB;
    config.vfio = vfio;
    vm_ = std::make_unique<guest::GuestVm>(sim_.get(), host_.get(), config);
    monitor_ = std::make_unique<GenericHyperAllocMonitor>(vm_.get());
  }

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
  std::unique_ptr<GenericHyperAllocMonitor> monitor_;
};

TEST_F(GenericHyperAllocTest, InstallOnFirstUse) {
  Init();
  EXPECT_EQ(vm_->rss_bytes(), 0u);
  const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(monitor_->installs(), 1u);
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize);
  EXPECT_TRUE(monitor_->aux().Allocated(FrameToHuge(*r)));
  EXPECT_FALSE(monitor_->aux().Evicted(FrameToHuge(*r)));
}

TEST_F(GenericHyperAllocTest, AuxOccupancyTracksBuddy) {
  Init();
  const Result<FrameId> a = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(a.ok());
  const HugeId huge = FrameToHuge(*a);
  EXPECT_TRUE(monitor_->aux().Allocated(huge));
  vm_->Free(*a, 0);
  vm_->PurgeAllocatorCaches();
  // PCP drain happens outside Free; occupancy clears once truly free.
  // (The PCP cache keeps the frame "allocated" from the buddy's view.)
  const Result<FrameId> b = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(b.ok());
  vm_->Free(*b, 0);
  vm_->PurgeAllocatorCaches();
  // After draining, freeing any remaining frame clears the block.
  // Allocate + free a frame with PCP disabled effect via huge order:
  const Result<FrameId> c = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(monitor_->aux().Allocated(FrameToHuge(*c)));
  vm_->Free(*c, kHugeOrder);
  EXPECT_FALSE(monitor_->aux().Allocated(FrameToHuge(*c)));
}

TEST_F(GenericHyperAllocTest, AutoReclaimIsDmaSafeFreePageReporting) {
  Init();
  std::vector<FrameId> frames;
  for (int i = 0; i < 32; ++i) {
    const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
    ASSERT_TRUE(r.ok());
    frames.push_back(*r);
  }
  EXPECT_EQ(vm_->rss_bytes(), 64 * kMiB);
  for (const FrameId f : frames) {
    vm_->Free(f, kHugeOrder);
  }
  EXPECT_EQ(monitor_->AutoReclaimPass(), 32u);
  EXPECT_EQ(vm_->rss_bytes(), 0u);
  // Unlike free-page reporting, reuse must go through install.
  const Result<FrameId> again = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize);
  EXPECT_GE(monitor_->installs(), 33u);
}

TEST_F(GenericHyperAllocTest, AutoReclaimSkipsUsedBlocks) {
  Init();
  const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(monitor_->AutoReclaimPass(), 0u);
  EXPECT_EQ(vm_->rss_bytes(), kHugeSize);
}

TEST_F(GenericHyperAllocTest, HardLimitGuestMediated) {
  Init();
  SetLimit(64 * kMiB);
  EXPECT_EQ(monitor_->limit_bytes(), 64 * kMiB);
  // The frames are held as guest allocations; the guest can use at most
  // the remaining 64 MiB.
  uint64_t allocated = 0;
  while (vm_->Alloc(kHugeOrder, AllocType::kHuge).ok()) {
    allocated += kHugeSize;
  }
  EXPECT_EQ(allocated, 64 * kMiB);
  EXPECT_EQ(vm_->rss_bytes(), 64 * kMiB);

  SetLimit(kVmBytes);
  EXPECT_EQ(monitor_->limit_bytes(), kVmBytes);
  // Returned frames install on reuse (DMA-safe deflation).
  const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(monitor_->aux().Allocated(FrameToHuge(*r)));
}

TEST_F(GenericHyperAllocTest, ShrinkOfUntouchedMemorySkipsUnmap) {
  Init();
  const uint64_t unmaps_before = vm_->ept().total_unmapped_ops();
  SetLimit(64 * kMiB);
  EXPECT_EQ(vm_->ept().total_unmapped_ops(), unmaps_before);
  EXPECT_EQ(vm_->rss_bytes(), 0u);
}

TEST_F(GenericHyperAllocTest, VfioDmaSafety) {
  Init(/*vfio=*/true);
  for (int i = 0; i < 64; ++i) {
    const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(vm_->DmaWrite(*r, kFramesPerHuge)) << "frame " << *r;
  }
  // Reclaimed memory is unpinned again.
  std::vector<FrameId> held;
  const Result<FrameId> victim = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(victim.ok());
  vm_->Free(*victim, kHugeOrder);
  ASSERT_GE(monitor_->AutoReclaimPass(), 1u);
  EXPECT_FALSE(vm_->DmaWrite(*victim, 1));
}

TEST_F(GenericHyperAllocTest, SoftReclaimBeatenByGuestAllocation) {
  // The atomicity point of the aux CAS: a frame the guest just allocated
  // (A set) cannot be reclaimed.
  Init();
  const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(monitor_->aux().TryReclaim(FrameToHuge(*r), false));
  vm_->Free(*r, kHugeOrder);
  EXPECT_TRUE(monitor_->aux().TryReclaim(FrameToHuge(*r), false));
  // Second reclaim of the same frame fails (already evicted).
  EXPECT_FALSE(monitor_->aux().TryReclaim(FrameToHuge(*r), false));
}

TEST_F(GenericHyperAllocTest, OnOutcomeFiresOnceWithTheLimitReached) {
  Init();
  int outcomes = 0;
  hv::ResizeOutcome seen;
  bool done = false;
  monitor_->Request({.target_bytes = 64 * kMiB,
                     .done = [&] { done = true; },
                     .on_outcome =
                         [&](const hv::ResizeOutcome& o) {
                           ++outcomes;
                           seen = o;
                         }});
  while (!done) {
    ASSERT_TRUE(sim_->Step());
  }
  EXPECT_EQ(outcomes, 1);
  EXPECT_EQ(seen.target_bytes, 64 * kMiB);
  EXPECT_EQ(seen.achieved_bytes, monitor_->limit_bytes());
  EXPECT_TRUE(seen.complete);
  EXPECT_FALSE(seen.timed_out);
  EXPECT_EQ(monitor_->last_outcome().achieved_bytes, 64 * kMiB);
}

TEST_F(GenericHyperAllocTest, DeadlineFinishesAMultiSliceShrinkPartially) {
  // 1024 huge frames; taking 768 of them needs two 512-frame slices, and
  // the second one starts after the 1 ns deadline.
  Init(/*vfio=*/false, 2 * kGiB);
  bool done = false;
  monitor_->Request({.target_bytes = 512 * kMiB,
                     .deadline_ns = 1,
                     .done = [&] { done = true; }});
  while (!done) {
    ASSERT_TRUE(sim_->Step());
  }
  const hv::ResizeOutcome& o = monitor_->last_outcome();
  EXPECT_TRUE(o.timed_out);
  EXPECT_FALSE(o.complete);
  EXPECT_EQ(o.achieved_bytes, 2 * kGiB - 512 * kHugeSize);
  EXPECT_EQ(monitor_->limit_bytes(), o.achieved_bytes);
  EXPECT_FALSE(monitor_->busy());
}

// The monitor's virtual costs, pinned to exact values with and without
// VFIO: the duration of a guest-mediated shrink and of the grow back, the
// guest/user/sys split of cpu(), and what an auto-reclamation pass leaves.
// Any change to the order or amount of a charge shows up as a changed
// number.
struct CostRun {
  sim::Time shrink_ns = 0;
  sim::Time grow_ns = 0;
  uint64_t guest_ns = 0;
  uint64_t host_user_ns = 0;
  uint64_t host_sys_ns = 0;
  uint64_t installs = 0;
  uint64_t soft_reclaims = 0;
  uint64_t rss_bytes = 0;
};

std::string Str(const CostRun& r) {
  return "{" + std::to_string(r.shrink_ns) + ", " + std::to_string(r.grow_ns) +
         ", " + std::to_string(r.guest_ns) + ", " +
         std::to_string(r.host_user_ns) + ", " +
         std::to_string(r.host_sys_ns) + ", " + std::to_string(r.installs) +
         ", " + std::to_string(r.soft_reclaims) + ", " +
         std::to_string(r.rss_bytes) + "}";
}

TEST_F(GenericHyperAllocTest, CostsArePinned) {
  for (const bool vfio : {false, true}) {
    Init(vfio);
    // 48 installed huge frames, 16 of them freed again: the shrink takes
    // free installed frames (unmapped) and never-touched ones alike.
    std::vector<FrameId> frames;
    for (int i = 0; i < 48; ++i) {
      const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
      ASSERT_TRUE(r.ok());
      frames.push_back(*r);
    }
    for (int i = 0; i < 16; ++i) {
      vm_->Free(frames[i * 3], kHugeOrder);
    }
    CostRun run;
    sim::Time t0 = sim_->now();
    SetLimit(96 * kMiB);
    run.shrink_ns = sim_->now() - t0;
    t0 = sim_->now();
    SetLimit(kVmBytes);
    run.grow_ns = sim_->now() - t0;
    for (int i = 0; i < 48; ++i) {
      if (i % 3 != 0) {
        vm_->Free(frames[i], kHugeOrder);
      }
    }
    monitor_->AutoReclaimPass();
    run.guest_ns = monitor_->cpu().guest_ns;
    run.host_user_ns = monitor_->cpu().host_user_ns;
    run.host_sys_ns = monitor_->cpu().host_sys_ns;
    run.installs = monitor_->installs();
    run.soft_reclaims = monitor_->soft_reclaims();
    run.rss_bytes = vm_->rss_bytes();
    const CostRun want =
        vfio ? CostRun{641200, 66320, 124000, 164740, 20022800, 48, 32, 0}
             : CostRun{193200, 66320, 124000, 164740, 17520800, 48, 32, 0};
    EXPECT_EQ(Str(run), Str(want)) << (vfio ? "vfio" : "no vfio");
  }
}

}  // namespace
}  // namespace hyperalloc::core

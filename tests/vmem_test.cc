// Tests for virtio-mem: block (un)plug, movable-zone migration, VFIO
// pre-population, and the simulated auto-resizer.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/guest/guest_vm.h"
#include "src/vmem/virtio_mem.h"

namespace hyperalloc::vmem {
namespace {

constexpr uint64_t kVmBytes = 256 * kMiB;
constexpr uint64_t kMovableBytes = 192 * kMiB;
constexpr uint64_t kStaticBytes = kVmBytes - kMovableBytes;

class VmemTest : public ::testing::Test {
 protected:
  // Every byte above the first kStaticBytes is hotpluggable.
  void Init(bool vfio = false, uint64_t vm_bytes = kVmBytes) {
    sim_ = std::make_unique<sim::Simulation>();
    host_ = std::make_unique<hv::HostMemory>(
        FramesForBytes(std::max(kGiB, vm_bytes)));
    guest::GuestConfig gc;
    gc.memory_bytes = vm_bytes;
    gc.vcpus = 4;
    gc.dma32_bytes = 0;
    gc.movable_bytes = vm_bytes - kStaticBytes;
    gc.vfio = vfio;
    vm_ = std::make_unique<guest::GuestVm>(sim_.get(), host_.get(), gc);
    vmem_ = std::make_unique<VirtioMem>(vm_.get());
  }

  void SetLimit(uint64_t bytes) {
    bool done = false;
    vmem_->Request({.target_bytes = bytes, .done = [&] { done = true; }});
    while (!done) {
      ASSERT_TRUE(sim_->Step());
    }
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<hv::HostMemory> host_;
  std::unique_ptr<guest::GuestVm> vm_;
  std::unique_ptr<VirtioMem> vmem_;
};

TEST_F(VmemTest, BootsFullyPlugged) {
  Init();
  EXPECT_EQ(vmem_->limit_bytes(), kVmBytes);
  EXPECT_EQ(vmem_->plugged_blocks(), kMovableBytes / kHugeSize);
  EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
}

TEST_F(VmemTest, UnplugShrinksLimitAndRss) {
  Init();
  vm_->Touch(0, vm_->total_frames());
  EXPECT_EQ(vm_->rss_bytes(), kVmBytes);
  SetLimit(kVmBytes - 64 * kMiB);
  EXPECT_EQ(vmem_->limit_bytes(), kVmBytes - 64 * kMiB);
  EXPECT_EQ(vm_->rss_bytes(), kVmBytes - 64 * kMiB);
  // Unplugged frames are gone from the guest allocator.
  EXPECT_EQ(vm_->FreeFrames() * kFrameSize, kVmBytes - 64 * kMiB);
}

TEST_F(VmemTest, UnplugTakesHighestBlocksFirst) {
  Init();
  SetLimit(kVmBytes - 16 * kMiB);
  // The top 8 blocks of the movable zone must be offline.
  const guest::Zone& movable = vm_->zones().back();
  for (FrameId f = movable.end() - FramesForBytes(16 * kMiB);
       f < movable.end(); ++f) {
    EXPECT_FALSE(movable.buddy->IsFree(f - movable.start));
  }
}

TEST_F(VmemTest, CannotShrinkBelowStaticMemory) {
  Init();
  SetLimit(16 * kMiB);  // below the 64 MiB of non-hotpluggable memory
  // Everything hotpluggable is gone, but the static zones remain.
  EXPECT_EQ(vmem_->limit_bytes(), kStaticBytes);
  EXPECT_EQ(vmem_->plugged_blocks(), 0u);
}

TEST_F(VmemTest, PlugRestoresMemory) {
  Init();
  SetLimit(kVmBytes - 64 * kMiB);
  SetLimit(kVmBytes);
  EXPECT_EQ(vmem_->limit_bytes(), kVmBytes);
  EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
  // Without VFIO, plugging does not populate host memory.
  EXPECT_EQ(vm_->rss_bytes(), 0u);
}

TEST_F(VmemTest, UnplugMigratesUsedBlocks) {
  Init();
  // Allocate movable memory that lands in the top blocks (buddy LIFO
  // hands out high addresses first).
  std::vector<FrameId> held;
  const guest::Zone& movable = vm_->zones().back();
  for (int i = 0; i < 512; ++i) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
    ASSERT_TRUE(r.ok());
    held.push_back(*r);
  }
  uint64_t in_top_half = 0;
  const FrameId mid = movable.start + movable.frames / 2;
  for (const FrameId f : held) {
    in_top_half += f >= mid ? 1 : 0;
  }
  ASSERT_GT(in_top_half, 0u);

  // Track migrations so we know where our frames went.
  struct Recorder : guest::MigrationListener {
    void OnFrameMigrated(FrameId from, FrameId to, unsigned order) override {
      moves.emplace_back(from, to);
      (void)order;
    }
    std::vector<std::pair<FrameId, FrameId>> moves;
  } recorder;
  vm_->AddMigrationListener(&recorder);

  SetLimit(kVmBytes - kMovableBytes / 2);  // unplug the top half
  EXPECT_EQ(vmem_->limit_bytes(), kVmBytes - kMovableBytes / 2);
  EXPECT_GT(vm_->migrated_frames(), 0u);

  // Apply the recorded moves to our handles and free them all: no frame
  // may be lost or double-owned.
  for (const auto& [from, to] : recorder.moves) {
    for (FrameId& f : held) {
      if (f == from) {
        f = to;
      }
    }
  }
  for (const FrameId f : held) {
    EXPECT_LT(f, mid) << "frame still inside the unplugged range";
    vm_->Free(f, 0);
  }
}

TEST_F(VmemTest, UnplugStopsWhenMigrationImpossible) {
  Init();
  // Fill the *entire* VM with movable allocations: no destination space.
  std::vector<FrameId> held;
  for (;;) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kMovable);
    if (!r.ok()) {
      break;
    }
    held.push_back(*r);
  }
  const uint64_t limit_before = vmem_->limit_bytes();
  SetLimit(kVmBytes - 64 * kMiB);
  EXPECT_EQ(vmem_->limit_bytes(), limit_before)
      << "no block can be evacuated when memory is full";
  EXPECT_GT(vmem_->unpluggable_failures(), 0u);
  // The guest's memory must be fully intact.
  for (const FrameId f : held) {
    vm_->Free(f, 0);
  }
  EXPECT_EQ(vm_->FreeFrames(), vm_->total_frames());
}

TEST_F(VmemTest, VfioPrepopulatesAndPins) {
  Init(/*vfio=*/true);
  // DMA safety by pre-population: everything is backed and pinned.
  EXPECT_EQ(vm_->rss_bytes(), kVmBytes);
  EXPECT_EQ(vm_->iommu()->pinned_huge(), HugesForFrames(vm_->total_frames()));
  EXPECT_TRUE(vm_->DmaWrite(0, vm_->total_frames()));
}

TEST_F(VmemTest, VfioUnplugUnpinsAndPlugRepins) {
  Init(/*vfio=*/true);
  SetLimit(kVmBytes - 16 * kMiB);
  EXPECT_EQ(vm_->rss_bytes(), kVmBytes - 16 * kMiB);
  EXPECT_EQ(vm_->iommu()->pinned_huge(),
            HugesForFrames(vm_->total_frames()) - 8);
  EXPECT_GT(vm_->iommu()->iotlb_flushes(), 0u);

  SetLimit(kVmBytes);
  // Plugging with VFIO pre-populates again (the 21x slowdown of §5.3).
  EXPECT_EQ(vm_->rss_bytes(), kVmBytes);
  EXPECT_TRUE(vm_->DmaWrite(0, vm_->total_frames()));
}

TEST_F(VmemTest, VfioGrowCostsMoreThanPlainGrow) {
  Init(false);
  SetLimit(kVmBytes - 128 * kMiB);
  sim::Time t0 = sim_->now();
  SetLimit(kVmBytes);
  const sim::Time plain = sim_->now() - t0;

  Init(true);
  SetLimit(kVmBytes - 128 * kMiB);
  t0 = sim_->now();
  SetLimit(kVmBytes);
  const sim::Time vfio = sim_->now() - t0;
  EXPECT_GT(vfio, 5 * plain);
}

TEST_F(VmemTest, AutoResizerUnplugsIdleMemory) {
  // Large enough that idle free memory exceeds the unplug threshold by
  // more than one 1 GiB step.
  const uint64_t vm_bytes = 4 * kGiB;
  Init(false, vm_bytes);
  vm_->Touch(0, vm_->total_frames());
  vmem_->StartAuto();
  sim_->RunUntil(20 * sim::kSec);
  vmem_->StopAuto();
  EXPECT_LT(vmem_->limit_bytes(), vm_bytes)
      << "idle memory should have been unplugged";
  EXPECT_LT(vm_->rss_bytes(), vm_bytes);
  // It must keep a cushion: never down to the static minimum.
  EXPECT_GT(vm_->FreeFrames() * kFrameSize, kAutoLowBytes);
}

TEST_F(VmemTest, CandidateProperties) {
  Init();
  const hv::DeflatorCaps caps = vmem_->caps();
  EXPECT_STREQ(caps.name, "virtio-mem");
  EXPECT_TRUE(caps.dma_safe);
  EXPECT_FALSE(caps.supports_auto);  // only the simulated resizer
  EXPECT_EQ(caps.granularity_bytes, kHugeSize);
}

}  // namespace
}  // namespace hyperalloc::vmem

// Tests for virtio-balloon (4 KiB and huge-page variants) and free-page
// reporting.
#include <gtest/gtest.h>

#include "src/balloon/virtio_balloon.h"
#include "src/guest/guest_vm.h"

namespace hyperalloc::balloon {
namespace {

constexpr uint64_t kVmBytes = 256 * kMiB;

class BalloonTest : public ::testing::Test {
 protected:
  void Init(BalloonConfig config = {}) {
    sim_ = std::make_unique<sim::Simulation>();
    host_ = std::make_unique<hv::HostMemory>(FramesForBytes(kGiB));
    guest::GuestConfig gc;
    gc.memory_bytes = kVmBytes;
    gc.vcpus = 4;
    gc.dma32_bytes = 64 * kMiB;
    vm_ = std::make_unique<guest::GuestVm>(sim_.get(), host_.get(), gc);
    balloon_ = std::make_unique<VirtioBalloon>(vm_.get(), config);
  }

  void SetLimit(uint64_t bytes) {
    bool done = false;
    balloon_->Request({.target_bytes = bytes, .done = [&] { done = true; }});
    while (!done) {
      ASSERT_TRUE(sim_->Step());
    }
  }

  // Populates the whole VM (touch everything), as the inflate benchmark
  // does before reclaiming.
  void TouchAll() { vm_->Touch(0, vm_->total_frames()); }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<hv::HostMemory> host_;
  std::unique_ptr<guest::GuestVm> vm_;
  std::unique_ptr<VirtioBalloon> balloon_;
};

TEST_F(BalloonTest, InflateShrinksRssAndLimit) {
  Init();
  TouchAll();
  EXPECT_EQ(vm_->rss_bytes(), kVmBytes);
  SetLimit(64 * kMiB);
  EXPECT_EQ(balloon_->limit_bytes(), 64 * kMiB);
  EXPECT_EQ(balloon_->ballooned_bytes(), kVmBytes - 64 * kMiB);
  EXPECT_EQ(vm_->rss_bytes(), 64 * kMiB);
  // The ballooned frames are allocated inside the guest.
  EXPECT_EQ(vm_->FreeFrames() * kFrameSize, 64 * kMiB);
}

TEST_F(BalloonTest, InflateUsesPerPageMadvise) {
  Init();
  TouchAll();
  SetLimit(kVmBytes - 16 * kMiB);
  // 4 KiB granularity: one madvise per page.
  EXPECT_EQ(balloon_->total_madvise_calls(), FramesForBytes(16 * kMiB));
}

TEST_F(BalloonTest, HugeVariantUsesPerHugeMadvise) {
  BalloonConfig config;
  config.huge = true;
  Init(config);
  TouchAll();
  SetLimit(kVmBytes - 16 * kMiB);
  EXPECT_EQ(balloon_->total_madvise_calls(), 16 * kMiB / kHugeSize);
}

TEST_F(BalloonTest, HugeInflationIsMuchFasterThanBase) {
  // Granularity is the whole game (§5.3): same bytes, ~2 orders of
  // magnitude fewer operations.
  Init();
  TouchAll();
  const sim::Time t4k_start = sim_->now();
  SetLimit(128 * kMiB);
  const sim::Time t4k = sim_->now() - t4k_start;

  BalloonConfig config;
  config.huge = true;
  Init(config);
  TouchAll();
  const sim::Time t2m_start = sim_->now();
  SetLimit(128 * kMiB);
  const sim::Time t2m = sim_->now() - t2m_start;

  EXPECT_GT(t4k, 50 * t2m) << "huge ballooning should be >50x faster";
}

TEST_F(BalloonTest, DeflateReturnsMemoryLazily) {
  Init();
  TouchAll();
  SetLimit(64 * kMiB);
  SetLimit(kVmBytes);
  EXPECT_EQ(balloon_->ballooned_bytes(), 0u);
  EXPECT_EQ(vm_->FreeFrames() * kFrameSize, kVmBytes);
  // Deflation does not repopulate: RSS stays low until the guest touches.
  EXPECT_EQ(vm_->rss_bytes(), 64 * kMiB);
  const uint64_t faults_before = vm_->ept_faults_2m() + vm_->ept_faults_4k();
  TouchAll();
  EXPECT_EQ(vm_->rss_bytes(), kVmBytes);
  EXPECT_GT(vm_->ept_faults_2m() + vm_->ept_faults_4k(), faults_before);
}

TEST_F(BalloonTest, InflationInducesCachePressure) {
  Init();
  vm_->CacheAdd(kVmBytes);  // page cache everywhere
  const uint64_t cache_before = vm_->cache_bytes();
  SetLimit(64 * kMiB);
  EXPECT_EQ(balloon_->limit_bytes(), 64 * kMiB);
  EXPECT_LT(vm_->cache_bytes(), cache_before)
      << "ballooning must evict page cache under pressure";
  EXPECT_EQ(vm_->oom_events(), 0u);
}

TEST_F(BalloonTest, PartialInflationWhenGuestCannotGiveMore) {
  Init();
  // Pin most memory with unreclaimable allocations.
  std::vector<FrameId> pinned;
  for (uint64_t i = 0; i < FramesForBytes(200 * kMiB); ++i) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kUnmovable);
    ASSERT_TRUE(r.ok());
    pinned.push_back(*r);
  }
  SetLimit(16 * kMiB);  // impossible: only ~56 MiB are free
  EXPECT_GT(balloon_->limit_bytes(), 16 * kMiB);
  EXPECT_LE(balloon_->ballooned_bytes(), 56 * kMiB);
}

TEST_F(BalloonTest, FreePageReportingReclaimsIdleMemory) {
  BalloonConfig config;
  config.reporting_order = kHugeOrder;
  config.reporting_delay = 2 * sim::kSec;
  config.reporting_capacity = 32;
  Init(config);
  // Simulate a finished workload: memory was touched and freed.
  TouchAll();
  EXPECT_EQ(vm_->rss_bytes(), kVmBytes);
  balloon_->StartAuto();
  sim_->RunUntil(30 * sim::kSec);
  EXPECT_LT(vm_->rss_bytes(), kVmBytes / 4)
      << "free-page reporting should have discarded most free memory";
  // Reported frames remain free for the guest (no limit change).
  EXPECT_EQ(balloon_->limit_bytes(), kVmBytes);
  EXPECT_EQ(vm_->FreeFrames() * kFrameSize, kVmBytes);
  balloon_->StopAuto();
}

TEST_F(BalloonTest, ReportingRespectsCapacityBatching) {
  BalloonConfig config;
  config.reporting_order = kHugeOrder;
  config.reporting_capacity = 16;
  Init(config);
  TouchAll();
  balloon_->StartAuto();
  sim_->RunUntil(10 * sim::kSec);
  balloon_->StopAuto();
  // 256 MiB / 2 MiB = 128 blocks at 16 per hypercall => >= 8 hypercalls.
  EXPECT_GE(balloon_->total_hypercalls(), 8u);
}

TEST_F(BalloonTest, ReportingDoesNotRereportUntouchedMemory) {
  BalloonConfig config;
  config.reporting_order = kHugeOrder;
  config.reporting_delay = sim::kSec;
  Init(config);
  TouchAll();
  balloon_->StartAuto();
  sim_->RunUntil(20 * sim::kSec);
  const uint64_t first_round = balloon_->reported_bytes_total();
  sim_->RunUntil(60 * sim::kSec);
  balloon_->StopAuto();
  // Nothing changed in the guest: no new reports.
  EXPECT_EQ(balloon_->reported_bytes_total(), first_round);
}

TEST_F(BalloonTest, ReportedMemoryFaultsBackOnReuse) {
  BalloonConfig config;
  config.reporting_order = kHugeOrder;
  Init(config);
  TouchAll();
  balloon_->StartAuto();
  sim_->RunUntil(30 * sim::kSec);
  balloon_->StopAuto();
  ASSERT_LT(vm_->rss_bytes(), kVmBytes / 4);
  // The guest allocates reported memory without any hypervisor
  // interaction — the DMA-unsafe part — and faults it back on access.
  const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(r.ok());
  const uint64_t rss_before = vm_->rss_bytes();
  vm_->Touch(*r, kFramesPerHuge);
  EXPECT_EQ(vm_->rss_bytes(), rss_before + kHugeSize);
}

TEST_F(BalloonTest, DeflateOnOomRescuesGuest) {
  Init();
  SetLimit(32 * kMiB);  // balloon holds almost everything
  ASSERT_EQ(balloon_->limit_bytes(), 32 * kMiB);
  // The guest demands more than its limit: instead of OOMing, the
  // balloon deflates.
  std::vector<FrameId> frames;
  for (uint64_t i = 0; i < FramesForBytes(48 * kMiB); ++i) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kUnmovable);
    ASSERT_TRUE(r.ok()) << "allocation " << i;
    frames.push_back(*r);
  }
  EXPECT_GT(balloon_->oom_deflations(), 0u);
  EXPECT_GT(balloon_->limit_bytes(), 32 * kMiB);
  EXPECT_EQ(vm_->oom_events(), 0u);
}

TEST_F(BalloonTest, InflationDoesNotCannibalizeItself) {
  Init();
  // Pin most memory; the inflation target is unreachable. The balloon
  // must stop (partial) rather than deflating itself to keep going.
  std::vector<FrameId> pinned;
  for (uint64_t i = 0; i < FramesForBytes(200 * kMiB); ++i) {
    const Result<FrameId> r = vm_->Alloc(0, AllocType::kUnmovable);
    ASSERT_TRUE(r.ok());
    pinned.push_back(*r);
  }
  SetLimit(16 * kMiB);
  EXPECT_EQ(balloon_->oom_deflations(), 0u);
  EXPECT_GT(balloon_->limit_bytes(), 16 * kMiB);
}

TEST_F(BalloonTest, NotDmaSafeRejectsVfio) {
  sim::Simulation sim;
  hv::HostMemory host(FramesForBytes(kGiB));
  guest::GuestConfig gc;
  gc.memory_bytes = kVmBytes;
  gc.dma32_bytes = 64 * kMiB;
  gc.vfio = true;
  guest::GuestVm vm(&sim, &host, gc);
  EXPECT_DEATH(VirtioBalloon(&vm, BalloonConfig{}), "check failed");
}

TEST_F(BalloonTest, CandidateProperties) {
  Init();
  hv::DeflatorCaps caps = balloon_->caps();
  EXPECT_STREQ(caps.name, "virtio-balloon");
  EXPECT_FALSE(caps.dma_safe);
  EXPECT_TRUE(caps.supports_auto);
  EXPECT_EQ(caps.granularity_bytes, kFrameSize);
  BalloonConfig config;
  config.huge = true;
  Init(config);
  caps = balloon_->caps();
  EXPECT_STREQ(caps.name, "virtio-balloon-huge");
  EXPECT_EQ(caps.granularity_bytes, kHugeSize);
}

}  // namespace
}  // namespace hyperalloc::balloon

// Tests for the hypervisor substrate: host memory pool, EPT, IOMMU, and
// the reclamation-state array.
#include <gtest/gtest.h>

#include <vector>

#include "src/base/rng.h"
#include "src/core/reclaim_states.h"
#include "src/hv/cost_model.h"
#include "src/hv/ept.h"
#include "src/hv/host_memory.h"
#include "src/hv/iommu.h"

namespace hyperalloc {
namespace {

TEST(HostMemory, ReserveRelease) {
  hv::HostMemory host(1000);
  EXPECT_TRUE(host.TryReserve(600));
  EXPECT_EQ(host.used_frames(), 600u);
  EXPECT_EQ(host.free_frames(), 400u);
  EXPECT_FALSE(host.TryReserve(500)) << "overcommit must be rejected";
  EXPECT_EQ(host.used_frames(), 600u);
  host.Release(100);
  EXPECT_TRUE(host.TryReserve(500));
  EXPECT_EQ(host.used_frames(), 1000u);
}

TEST(HostMemory, PeakTracking) {
  hv::HostMemory host(1000);
  host.TryReserve(700);
  host.Release(600);
  host.TryReserve(200);
  EXPECT_EQ(host.peak_frames(), 700u);
  host.TryReserve(600);
  EXPECT_EQ(host.peak_frames(), 900u);
}

TEST(HostMemory, SnapshotIsConsistent) {
  hv::HostMemory host(1000);
  host.TryReserve(300);
  const hv::MemorySnapshot snap = host.snapshot();
  EXPECT_EQ(snap.total, 1000u);
  EXPECT_EQ(snap.used, 300u);
  EXPECT_EQ(snap.free, 700u);
  EXPECT_GE(snap.peak, snap.used);
}

TEST(Ept, MapUnmapAndRss) {
  hv::HostMemory host(10000);
  hv::Ept ept(8192, &host);
  EXPECT_EQ(ept.mapped_frames(), 0u);
  EXPECT_EQ(ept.Map(100, 50), 50u);
  EXPECT_EQ(ept.mapped_frames(), 50u);
  EXPECT_EQ(ept.rss_bytes(), 50 * kFrameSize);
  EXPECT_EQ(host.used_frames(), 50u);
  // Overlapping map only reserves the missing part.
  EXPECT_EQ(ept.Map(120, 50), 20u);
  EXPECT_EQ(ept.mapped_frames(), 70u);
  EXPECT_EQ(ept.Unmap(100, 70), 70u);
  EXPECT_EQ(ept.mapped_frames(), 0u);
  EXPECT_EQ(host.used_frames(), 0u);
}

TEST(Ept, CountMappedWordBoundaries) {
  hv::Ept ept(1024, nullptr);
  ept.Map(60, 10);  // straddles the first 64-bit word boundary
  EXPECT_EQ(ept.CountMapped(0, 1024), 10u);
  EXPECT_EQ(ept.CountMapped(60, 10), 10u);
  EXPECT_EQ(ept.CountMapped(0, 60), 0u);
  EXPECT_EQ(ept.CountMapped(64, 6), 6u);
  EXPECT_EQ(ept.CountMapped(63, 2), 2u);
  EXPECT_TRUE(ept.IsMapped(69));
  EXPECT_FALSE(ept.IsMapped(70));
}

TEST(Ept, HostExhaustionLeavesStateUnchanged) {
  hv::HostMemory host(10);
  hv::Ept ept(1024, &host);
  EXPECT_EQ(ept.Map(0, 64), hv::Ept::kNoHostMemory);
  EXPECT_EQ(ept.mapped_frames(), 0u);
  EXPECT_EQ(host.used_frames(), 0u);
  EXPECT_EQ(ept.Map(0, 10), 10u);
}

TEST(Ept, UnmapAbsentIsFree) {
  hv::Ept ept(1024, nullptr);
  EXPECT_EQ(ept.Unmap(0, 512), 0u);
  EXPECT_EQ(ept.total_unmapped_ops(), 0u);
}

// Per-frame reference for hv::Ept's documented semantics: one bool per
// 4 KiB frame and per 2 MiB entry, updated one frame at a time.
class ReferenceEpt {
 public:
  ReferenceEpt(uint64_t frames, uint64_t host_frames)
      : host_free_(host_frames),
        mapped_(frames, false),
        huge_entry_(HugesForFrames(frames), false) {}

  uint64_t Map(FrameId first, uint64_t count) {
    const uint64_t missing = count - CountMapped(first, count);
    if (missing == 0) {
      return 0;
    }
    if (missing > host_free_) {
      return hv::Ept::kNoHostMemory;
    }
    host_free_ -= missing;
    for (HugeId huge = 0; huge < huge_entry_.size(); ++huge) {
      const FrameId hf = HugeToFrame(huge);
      if (hf >= first && hf + kFramesPerHuge <= first + count &&
          CountMapped(hf, kFramesPerHuge) == 0) {
        huge_entry_[huge] = true;
      }
    }
    for (FrameId f = first; f < first + count; ++f) {
      mapped_[f] = true;
    }
    mapped_frames += missing;
    return missing;
  }

  uint64_t Unmap(FrameId first, uint64_t count) {
    const uint64_t present = CountMapped(first, count);
    if (present == 0) {
      return 0;
    }
    uint64_t whole_2m = 0;
    for (HugeId huge = 0; huge < huge_entry_.size(); ++huge) {
      const FrameId hf = HugeToFrame(huge);
      if (!huge_entry_[huge] || hf + kFramesPerHuge <= first ||
          hf >= first + count) {
        continue;  // no entry, or the range misses this huge frame
      }
      if (hf >= first && hf + kFramesPerHuge <= first + count) {
        ++whole_2m;
      } else {
        ++demotions_2m;
      }
      huge_entry_[huge] = false;
    }
    for (FrameId f = first; f < first + count; ++f) {
      mapped_[f] = false;
    }
    mapped_frames -= present;
    host_free_ += present;
    entries_invalidated_2m += whole_2m;
    entries_invalidated_4k += present - whole_2m * kFramesPerHuge;
    return present;
  }

  bool IsMapped(FrameId frame) const { return mapped_[frame]; }
  bool HasHugeEntry(HugeId huge) const { return huge_entry_[huge]; }

  uint64_t mapped_frames = 0;
  uint64_t demotions_2m = 0;
  uint64_t entries_invalidated_2m = 0;
  uint64_t entries_invalidated_4k = 0;

 private:
  uint64_t CountMapped(FrameId first, uint64_t count) const {
    uint64_t n = 0;
    for (FrameId f = first; f < first + count; ++f) {
      n += mapped_[f] ? 1 : 0;
    }
    return n;
  }

  uint64_t host_free_;
  std::vector<bool> mapped_;
  std::vector<bool> huge_entry_;
};

TEST(Ept, MatchesPerFrameReference) {
  // Five huge frames plus a partial sixth; the host holds only 3/4 of
  // them so some maps hit exhaustion.
  constexpr uint64_t kFrames = 5 * kFramesPerHuge + 100;
  constexpr uint64_t kHostFrames = kFrames * 3 / 4;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    hv::HostMemory host(kHostFrames);
    hv::Ept ept(kFrames, &host);
    ReferenceEpt ref(kFrames, kHostFrames);
    for (int op = 0; op < 300; ++op) {
      // Huge-aligned ops make whole 2M entries to demote or invalidate.
      const uint64_t count = rng.Chance(0.3)
                                 ? kFramesPerHuge * rng.Range(1, 3)
                                 : rng.Range(0, 2000);
      uint64_t first = rng.Below(kFrames - count + 1);
      if (count % kFramesPerHuge == 0 && rng.Chance(0.5)) {
        first = AlignDown(first, kFramesPerHuge);
      }
      const bool map = rng.Chance(0.5);
      SCOPED_TRACE(testing::Message()
                   << "op " << op << (map ? " Map(" : " Unmap(") << first
                   << ", " << count << ")");
      if (map) {
        ASSERT_EQ(ept.Map(first, count), ref.Map(first, count));
      } else {
        ASSERT_EQ(ept.Unmap(first, count), ref.Unmap(first, count));
      }
      ASSERT_EQ(ept.mapped_frames(), ref.mapped_frames);
      ASSERT_EQ(host.used_frames(), ref.mapped_frames);
      ASSERT_EQ(ept.demotions_2m(), ref.demotions_2m);
      ASSERT_EQ(ept.entries_invalidated_2m(), ref.entries_invalidated_2m);
      ASSERT_EQ(ept.entries_invalidated_4k(), ref.entries_invalidated_4k);
      for (FrameId f = 0; f < kFrames; ++f) {
        ASSERT_EQ(ept.IsMapped(f), ref.IsMapped(f)) << "frame " << f;
      }
      for (HugeId h = 0; h < HugesForFrames(kFrames); ++h) {
        ASSERT_EQ(ept.HasHugeEntry(h), ref.HasHugeEntry(h)) << "huge " << h;
      }
    }
  }
}

TEST(Iommu, PinUnpinAndDma) {
  hv::Iommu iommu(4096);  // 8 huge frames
  EXPECT_EQ(iommu.num_huge(), 8u);
  EXPECT_FALSE(iommu.DmaAccessOk(0));
  EXPECT_TRUE(iommu.Pin(0));
  EXPECT_FALSE(iommu.Pin(0)) << "double pin is a no-op";
  EXPECT_TRUE(iommu.DmaAccessOk(511));
  EXPECT_FALSE(iommu.DmaAccessOk(512));
  EXPECT_TRUE(iommu.Unpin(0));
  EXPECT_FALSE(iommu.Unpin(0));
  EXPECT_EQ(iommu.iotlb_flushes(), 1u);
  EXPECT_EQ(iommu.pinned_huge(), 0u);
}

TEST(Iommu, RangeUnpinCoalescesFlushes) {
  hv::Iommu iommu(8 * 512);  // 8 huge frames
  EXPECT_EQ(iommu.PinRange(0, 8), 8u);
  // A contiguous 8-huge unpin costs one IOTLB invalidation, not eight.
  EXPECT_EQ(iommu.UnpinRange(0, 8), 8u);
  EXPECT_EQ(iommu.iotlb_flushes(), 1u);
  EXPECT_EQ(iommu.iotlb_flushed_huge(), 8u);
  EXPECT_EQ(iommu.pinned_huge(), 0u);
  // Unpinning an already-unpinned range changes nothing and flushes
  // nothing.
  EXPECT_EQ(iommu.UnpinRange(0, 8), 0u);
  EXPECT_EQ(iommu.iotlb_flushes(), 1u);
}

TEST(Ept, RangeUnmapCoalescesTlbFlushes) {
  hv::HostMemory host(10000);
  hv::Ept ept(8192, &host);
  ept.Map(0, 512);
  EXPECT_EQ(ept.Unmap(0, 512), 512u);
  EXPECT_EQ(ept.tlb_range_flushes(), 1u);
  EXPECT_EQ(ept.tlb_flushed_frames(), 512u);
  // Unmapping absent ranges does not flush.
  EXPECT_EQ(ept.Unmap(0, 512), 0u);
  EXPECT_EQ(ept.tlb_range_flushes(), 1u);
}

TEST(ReclaimStates, PackedTwoBitStorage) {
  core::ReclaimStateArray states(100);
  EXPECT_EQ(states.Get(0), core::ReclaimState::kInstalled);
  states.Set(0, core::ReclaimState::kHard);
  states.Set(1, core::ReclaimState::kSoft);
  states.Set(99, core::ReclaimState::kHard);
  EXPECT_EQ(states.Get(0), core::ReclaimState::kHard);
  EXPECT_EQ(states.Get(1), core::ReclaimState::kSoft);
  EXPECT_EQ(states.Get(2), core::ReclaimState::kInstalled);
  EXPECT_EQ(states.Get(99), core::ReclaimState::kHard);
  EXPECT_EQ(states.CountState(core::ReclaimState::kHard), 2u);
  EXPECT_EQ(states.CountState(core::ReclaimState::kSoft), 1u);
}

TEST(ReclaimStates, OverwriteClearsOldBits) {
  core::ReclaimStateArray states(32);
  states.Set(5, core::ReclaimState::kHard);  // 0b10
  states.Set(5, core::ReclaimState::kSoft);  // 0b01: both bits change
  EXPECT_EQ(states.Get(5), core::ReclaimState::kSoft);
  states.Set(5, core::ReclaimState::kInstalled);
  EXPECT_EQ(states.Get(5), core::ReclaimState::kInstalled);
}

TEST(ReclaimStates, ScanFootprintMatchesPaperFormula) {
  // §3.3: 2 bits of R per huge frame; 1 GiB = 512 huge frames = 128 B of
  // R state = 2 cache lines, plus 16 cache lines for the area index.
  core::ReclaimStateArray states(512);
  EXPECT_EQ(states.ByteSize(), 128u);
  const uint64_t r_lines = (states.ByteSize() + 63) / 64;
  const uint64_t area_lines = (512 * 2 + 63) / 64;
  EXPECT_EQ(r_lines + area_lines, 18u) << "18 cache lines per GiB (§3.3)";
}

TEST(CostModel, PaperCalibrationPoints) {
  const hv::CostModel costs;
  // §5.3 measured rates (these anchor the virtual-time calibration).
  EXPECT_EQ(costs.ha_reclaim_state_2m_ns, 388u);
  EXPECT_EQ(costs.ha_return_state_2m_ns, 229u);
  // Install hypercall ~6 % more expensive than an EPT fault.
  EXPECT_NEAR(static_cast<double>(costs.install_hypercall_2m_ns),
              1.06 * static_cast<double>(costs.ept_fault_2m_ns), 100.0);
  // Mapped-page writes at 17 GiB/s => 229 ns per 4 KiB.
  EXPECT_EQ(costs.touch_4k_ns, 229u);
}

}  // namespace
}  // namespace hyperalloc

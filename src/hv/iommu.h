// IOMMU (VFIO device passthrough) model.
//
// DMA-capable devices cannot take IO page faults (paper §2), so every
// guest-physical frame a device may target must be mapped and *pinned* in
// the IOMMU page tables before the DMA happens. We track pinning at
// 2 MiB granularity (HyperAlloc maps/unmaps huge frames; virtio-mem
// pre-populates whole blocks). DmaAccessOk() is the DMA-safety oracle the
// tests and the device-passthrough example use.
#pragma once

#include <cstdint>
#include <vector>

#include "src/base/check.h"
#include "src/base/types.h"
#include "src/fault/fault.h"
#include "src/trace/trace.h"

namespace hyperalloc::hv {

class Iommu {
 public:
  explicit Iommu(uint64_t frames)
      : num_huge_(HugesForFrames(frames)),
        pinned_((num_huge_ + 63) / 64, 0) {}

  uint64_t num_huge() const { return num_huge_; }
  uint64_t pinned_huge() const { return pinned_count_; }

  // Arms deterministic fault injection (fault::Site::kIommuPin /
  // kIommuUnpin). An injected fault fails the whole call atomically —
  // nothing is (un)pinned — so callers detect it by postcondition
  // (IsPinned) and can retry or quarantine. Null disarms.
  void SetFaultInjector(fault::Injector* injector) { fault_ = injector; }
  fault::Kind last_injected_kind() const { return last_injected_kind_; }
  uint64_t injected_faults() const { return injected_faults_; }

  bool IsPinned(HugeId huge) const {
    HA_CHECK(huge < num_huge_);
    return (pinned_[huge / 64] >> (huge % 64)) & 1;
  }

  // Returns true if the state changed.
  bool Pin(HugeId huge) {
    HA_CHECK(huge < num_huge_);
    if (IsPinned(huge)) {
      return false;
    }
    if (InjectFault(fault::Site::kIommuPin)) {
      return false;  // not pinned — caller checks IsPinned to tell apart
    }
    pinned_[huge / 64] |= 1ull << (huge % 64);
    ++pinned_count_;
    ++map_ops_;
    HA_COUNT("iommu.map");
    return true;
  }

  bool Unpin(HugeId huge) { return UnpinRange(huge, 1) == 1; }

  // Pins [first, first+count); returns the number of huge frames whose
  // state changed (map operations issued).
  uint64_t PinRange(HugeId first, uint64_t count) {
    HA_CHECK(first + count <= num_huge_);
    if (InjectFault(fault::Site::kIommuPin)) {
      return 0;  // whole-range failure, nothing pinned
    }
    uint64_t changed = 0;
    for (HugeId huge = first; huge < first + count; ++huge) {
      if (IsPinned(huge)) {
        continue;
      }
      pinned_[huge / 64] |= 1ull << (huge % 64);
      ++pinned_count_;
      ++map_ops_;
      ++changed;
      HA_COUNT("iommu.map");
    }
    return changed;
  }

  // Unpins [first, first+count), charging exactly ONE ranged IOTLB
  // invalidation for the whole batch (real IOMMUs support ranged
  // invalidation; the per-frame flush is what made unbatched unpinning
  // slow) instead of one flush per huge frame. Returns the number of
  // frames whose state changed.
  uint64_t UnpinRange(HugeId first, uint64_t count) {
    HA_CHECK(first + count <= num_huge_);
    if (InjectFault(fault::Site::kIommuUnpin)) {
      return 0;  // whole-range failure, nothing unpinned, no flush
    }
    uint64_t changed = 0;
    for (HugeId huge = first; huge < first + count; ++huge) {
      if (!IsPinned(huge)) {
        continue;
      }
      pinned_[huge / 64] &= ~(1ull << (huge % 64));
      --pinned_count_;
      ++unmap_ops_;
      ++changed;
      HA_COUNT("iommu.unmap");
    }
    if (changed > 0) {
      ++iotlb_flushes_;
      iotlb_flushed_huge_ += changed;
      HA_COUNT("iommu.iotlb_flush");
    }
    return changed;
  }

  // Would a DMA transfer targeting `frame` succeed? (No IO page faults.)
  bool DmaAccessOk(FrameId frame) const { return IsPinned(FrameToHuge(frame)); }

  uint64_t map_ops() const { return map_ops_; }
  uint64_t unmap_ops() const { return unmap_ops_; }
  // Ranged invalidations issued; `iotlb_flushed_huge()` is what per-frame
  // flushing would have issued (the coalescing win is the ratio).
  uint64_t iotlb_flushes() const { return iotlb_flushes_; }
  uint64_t iotlb_flushed_huge() const { return iotlb_flushed_huge_; }

 private:
  bool InjectFault(fault::Site site) {
    const auto kind = fault::Poll(fault_, site);
    if (!kind.has_value()) {
      return false;
    }
    last_injected_kind_ = *kind;
    ++injected_faults_;
    HA_COUNT("fault.iommu");
    return true;
  }

  uint64_t num_huge_;
  std::vector<uint64_t> pinned_;
  uint64_t pinned_count_ = 0;
  uint64_t map_ops_ = 0;
  uint64_t unmap_ops_ = 0;
  uint64_t iotlb_flushes_ = 0;
  uint64_t iotlb_flushed_huge_ = 0;
  fault::Injector* fault_ = nullptr;
  fault::Kind last_injected_kind_ = fault::Kind::kTransient;
  uint64_t injected_faults_ = 0;
};

}  // namespace hyperalloc::hv

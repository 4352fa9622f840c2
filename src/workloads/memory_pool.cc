#include "src/workloads/memory_pool.h"

#include "src/base/check.h"

namespace hyperalloc::workloads {

MemoryPool::MemoryPool(guest::GuestVm* vm) : vm_(vm) {
  HA_CHECK(vm != nullptr);
  vm->AddMigrationListener(this);
}

uint64_t MemoryPool::AllocRegion(uint64_t bytes, double thp_fraction,
                                 unsigned core, AllocType type) {
  const uint64_t region = next_region_++;
  regions_[region];
  GrowRegionTyped(region, bytes, thp_fraction, core, type);
  return region;
}

void MemoryPool::GrowRegion(uint64_t region, uint64_t bytes,
                            double thp_fraction, unsigned core) {
  GrowRegionTyped(region, bytes, thp_fraction, core, AllocType::kMovable);
}

void MemoryPool::GrowRegionTyped(uint64_t region, uint64_t bytes,
                                 double thp_fraction, unsigned core,
                                 AllocType type) {
  std::vector<Allocation>& allocs = regions_.at(region);

  uint64_t huge_frames =
      HugesForFrames(static_cast<uint64_t>(
          static_cast<double>(FramesForBytes(bytes)) * thp_fraction)) *
      kFramesPerHuge;
  uint64_t base_frames = FramesForBytes(bytes) > huge_frames
                             ? FramesForBytes(bytes) - huge_frames
                             : 0;

  auto grab = [&](unsigned order, uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) {
      Result<FrameId> r = vm_->Alloc(
          order, order == kHugeOrder ? AllocType::kHuge : type, core);
      if (!r.ok() && order == kHugeOrder) {
        // THP fallback: the kernel uses base pages when no huge frame is
        // available.
        base_frames += (count - i) * kFramesPerHuge;
        return;
      }
      if (!r.ok()) {
        return;  // OOM: keep what we got
      }
      vm_->Touch(*r, 1ull << order);
      const size_t idx = allocs.size();
      allocs.push_back({*r, order});
      if (indexed_) {
        index_[*r] = {region, idx};
      }
      total_frames_ += 1ull << order;
    }
  };

  grab(kHugeOrder, huge_frames / kFramesPerHuge);
  grab(0, base_frames);
}

void MemoryPool::FreeRegion(uint64_t region, unsigned core) {
  auto it = regions_.find(region);
  if (it == regions_.end()) {
    return;
  }
  for (const Allocation& alloc : it->second) {
    vm_->Free(alloc.frame, alloc.order, core);
    if (indexed_) {
      index_.erase(alloc.frame);
    }
    total_frames_ -= 1ull << alloc.order;
  }
  regions_.erase(it);
}

void MemoryPool::FreeAll(unsigned core) {
  std::vector<uint64_t> ids;
  ids.reserve(regions_.size());
  for (const auto& [id, allocs] : regions_) {
    ids.push_back(id);
  }
  for (const uint64_t id : ids) {
    FreeRegion(id, core);
  }
}

uint64_t MemoryPool::RegionBytes(uint64_t region) const {
  const auto it = regions_.find(region);
  if (it == regions_.end()) {
    return 0;
  }
  uint64_t frames = 0;
  for (const Allocation& alloc : it->second) {
    frames += 1ull << alloc.order;
  }
  return frames * kFrameSize;
}

void MemoryPool::OnFrameMigrated(FrameId old_head, FrameId new_head,
                                 unsigned order) {
  if (!indexed_) {
    indexed_ = true;
    for (const auto& [region, allocs] : regions_) {
      for (size_t idx = 0; idx < allocs.size(); ++idx) {
        index_[allocs[idx].frame] = {region, idx};
      }
    }
  }
  const auto it = index_.find(old_head);
  if (it == index_.end()) {
    return;  // not ours (page cache or another owner)
  }
  const auto [region, idx] = it->second;
  std::vector<Allocation>& allocs = regions_.at(region);
  HA_CHECK(allocs[idx].frame == old_head);
  HA_CHECK(allocs[idx].order == order);
  allocs[idx].frame = new_head;
  index_.erase(it);
  index_[new_head] = {region, idx};
}

}  // namespace hyperalloc::workloads

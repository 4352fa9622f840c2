#include "src/guest/compaction.h"

#include <vector>

#include "src/base/check.h"

namespace hyperalloc::guest {
namespace {

// vCPU the migrations are charged to.
constexpr unsigned kCompactionCore = 0;

}  // namespace

Compactor::Compactor(GuestVm* vm) : vm_(vm) {
  HA_CHECK(vm != nullptr);
}

bool Compactor::TryCompactBlock(Zone& zone, HugeId local_block) {
  const FrameId global_first =
      zone.start + HugeToFrame(local_block);
  // Unmovable content pins the block: check before doing any work.
  for (FrameId f = global_first; f < global_first + kFramesPerHuge;) {
    const unsigned order = vm_->AllocOrderAt(f);
    if (order == 0xff) {
      ++f;
      continue;
    }
    if (vm_->AllocUnmovableAt(f)) {
      return false;
    }
    f += 1ull << order;
  }

  // Isolate the block's free frames so the allocator cannot hand them
  // out as migration destinations (or to the guest) mid-evacuation.
  if (zone.buddy != nullptr) {
    zone.buddy->ClaimFreeInRange(global_first - zone.start, kFramesPerHuge);
  } else {
    std::vector<FrameId> claimed;
    zone.llfree->ClaimFreeInArea(local_block, &claimed);
  }
  uint64_t moved = 0;
  const bool ok =
      vm_->MigrateRange(global_first, kFramesPerHuge, kCompactionCore, &moved);
  frames_migrated_ += moved;
  if (!ok) {
    vm_->ReleaseIsolatedRange(global_first, kFramesPerHuge);
    return false;
  }
  // The whole block is evacuated: release it as one free huge block. For
  // LLFree zones ReleaseIsolatedRange covers the full range (everything
  // is isolated now), so the area counter reaches 512 and the huge frame
  // re-forms (§4.14).
  if (zone.buddy != nullptr) {
    zone.buddy->ReleaseRange(global_first - zone.start, kFramesPerHuge);
  } else {
    vm_->ReleaseIsolatedRange(global_first, kFramesPerHuge);
  }
  ++blocks_compacted_;
  return true;
}

uint64_t Compactor::CompactPass(uint64_t max_blocks) {
  uint64_t freed = 0;
  for (Zone& zone : vm_->zones()) {
    if (zone.buddy != nullptr) {
      const uint64_t blocks = zone.frames / kFramesPerHuge;
      for (HugeId b = 0; b < blocks && freed < max_blocks; ++b) {
        const uint64_t used = zone.buddy->UsedFramesInBlock(b);
        if (used == 0 || used > kMaxUsedFrames) {
          continue;
        }
        if (TryCompactBlock(zone, b)) {
          ++freed;
        }
      }
    } else {
      // LLFree zone (§4.14). Drain the per-vCPU cache first: cached
      // frames hold allocator bits while looking free to the guest, so
      // compacting around them would double-free on the next drain —
      // returning them up front lets ClaimFreeInArea isolate them
      // properly (and often re-forms huge frames by itself).
      zone.llfree_cache->Drain();
      const uint64_t areas = zone.llfree->num_areas();
      for (HugeId a = 0; a < areas && freed < max_blocks; ++a) {
        const llfree::AreaEntry entry = zone.llfree->ReadArea(a);
        if (entry.allocated || entry.evicted) {
          continue;  // huge-allocated or host-unbacked: nothing to form
        }
        const uint64_t used = kFramesPerHuge - entry.free;
        if (used == 0 || used > kMaxUsedFrames) {
          continue;  // already whole, or too expensive to evacuate
        }
        if (TryCompactBlock(zone, a)) {
          ++freed;
        }
      }
    }
    if (freed >= max_blocks) {
      break;
    }
  }
  return freed;
}

}  // namespace hyperalloc::guest

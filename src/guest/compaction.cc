#include "src/guest/compaction.h"

#include <algorithm>
#include <vector>

#include "src/base/check.h"

namespace hyperalloc::guest {
namespace {

// Background daemon scan period.
constexpr sim::Time kCompactionPeriod = 2 * sim::kSec;
// vCPU the migrations are charged to.
constexpr unsigned kCompactionCore = 0;

}  // namespace

Compactor::Compactor(GuestVm* vm, const CompactionConfig& config)
    : vm_(vm), config_(config), sim_(vm->simulation()) {
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
        if (used == 0 || used > config_.max_used_frames) {
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
        if (used == 0 || used > config_.max_used_frames) {
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

void Compactor::StartBackground() {
  if (running_) {
    return;
  }
  running_ = true;
  backoff_ = 1;
  sim_->After(kCompactionPeriod, [this] { Tick(); });
}

void Compactor::Stop() { running_ = false; }

void Compactor::Tick() {
  if (!running_) {
    return;
  }
  const bool below_watermark =
      vm_->FreeHugeFrames() < config_.min_free_huge;
  const bool fragmented =
      vm_->FragmentationScore() > config_.frag_threshold;
  if (below_watermark || fragmented) {
    ++triggered_passes_;
    const uint64_t freed = CompactPass(config_.blocks_per_wakeup);
    if (freed > 0) {
      backoff_ = 1;
    } else if (backoff_ < config_.max_backoff) {
      // No progress: every candidate is pinned or too full. Back off so
      // a hopeless configuration does not burn CPU every period.
      backoff_ = std::min<uint64_t>(backoff_ * 2, config_.max_backoff);
    }
  } else {
    backoff_ = 1;
  }
  sim_->After(kCompactionPeriod * backoff_, [this] { Tick(); });
}

}  // namespace hyperalloc::guest

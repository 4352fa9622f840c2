// Memory compaction (kcompactd) for buddy- and LLFree-allocator zones.
//
// Linux actively defragments physical memory by migrating movable pages
// out of sparsely used pageblocks, re-forming free huge blocks. The paper
// leans on this in two places: virtio-mem's unplug path depends on it
// ("virtio-mem has to compact and migrate memory, which turned out to be
// too slow", §5.5), and LLFree's per-type reservations are praised for
// making active compaction *less* necessary (§4.2). This model performs
// block-granular compaction over the same migration machinery virtio-mem
// uses, with migration costs charged to virtual time.
//
// The huge-frame fast path (DESIGN.md §4.14) extends the daemon to
// LLFree zones: per-type reservations defragment passively, but
// long-lived straggler allocations still splinter areas, and every
// splintered area is a huge frame the order-9 reclaim path cannot take.
// The daemon isolates an area's free frames (LLFree::ClaimFreeInArea),
// migrates the stragglers out with the shared MigrateRange machinery,
// and releases the evacuated area as one re-formed huge frame. It wakes
// on a fragmentation score (the fraction of free memory not recoverable
// as whole huge frames) as well as the free-huge watermark, and backs
// off exponentially when a triggered pass makes no progress.
#pragma once

#include <cstdint>

#include "src/guest/guest_vm.h"
#include "src/sim/simulation.h"

namespace hyperalloc::guest {

struct CompactionConfig {
  // Only pageblocks with at most this many used frames are evacuation
  // candidates (cheap wins first, as kcompactd does).
  uint64_t max_used_frames = 128;
  // Background daemon: the free-huge-frame watermark below which it
  // compacts.
  uint64_t min_free_huge = 64;
  // Fragmentation-score trigger (§4.14): also compact when
  // GuestVm::FragmentationScore() exceeds this, even above the
  // watermark. Values > 1.0 disable the score trigger.
  double frag_threshold = 0.5;
  // Zero-progress backoff (§4.14): a triggered pass that frees nothing
  // doubles the 2 s wakeup period, up to max_backoff times it; any
  // progress resets it. Keeps a hopelessly pinned guest from burning CPU.
  uint64_t max_backoff = 8;
  // Blocks compacted per daemon wakeup.
  uint64_t blocks_per_wakeup = 16;
};

class Compactor {
 public:
  Compactor(GuestVm* vm, const CompactionConfig& config);

  // One synchronous compaction pass over all zones: evacuates up to
  // `max_blocks` sparsely used pageblocks (buddy) / areas (LLFree).
  // Returns the number of huge blocks freed.
  uint64_t CompactPass(uint64_t max_blocks);

  // kcompactd: periodically compacts while huge-frame availability is
  // below the watermark or the fragmentation score is above threshold.
  void StartBackground();
  void Stop();

  uint64_t blocks_compacted() const { return blocks_compacted_; }
  // Base frames migrated out of evacuated blocks (the §4.14 "compaction
  // migrations" bench metric).
  uint64_t frames_migrated() const { return frames_migrated_; }
  // Daemon wakeups that ran a pass (watermark or score trigger).
  uint64_t triggered_passes() const { return triggered_passes_; }
  // Current backoff multiplier (1 = no backoff), for tests.
  uint64_t backoff_multiplier() const { return backoff_; }

 private:
  bool TryCompactBlock(Zone& zone, HugeId local_block);
  void Tick();

  GuestVm* vm_;
  CompactionConfig config_;
  sim::Simulation* sim_;
  bool running_ = false;
  uint64_t blocks_compacted_ = 0;
  uint64_t frames_migrated_ = 0;
  uint64_t triggered_passes_ = 0;
  uint64_t backoff_ = 1;
};

}  // namespace hyperalloc::guest

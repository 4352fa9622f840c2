// Memory compaction for buddy- and LLFree-allocator zones.
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
// The huge-frame fast path (DESIGN.md §4.14) extends compaction to
// LLFree zones: per-type reservations defragment passively, but
// long-lived straggler allocations still splinter areas, and every
// splintered area is a huge frame the order-9 reclaim path cannot take.
// A pass isolates an area's free frames (LLFree::ClaimFreeInArea),
// migrates the stragglers out with the shared MigrateRange machinery,
// and releases the evacuated area as one re-formed huge frame. There is
// no background daemon: the caller runs one synchronous CompactPass.
#pragma once

#include <cstdint>

#include "src/guest/guest_vm.h"

namespace hyperalloc::guest {

// Only pageblocks with at most this many used frames are evacuation
// candidates (cheap wins first, as kcompactd does).
inline constexpr uint64_t kMaxUsedFrames = 128;

class Compactor {
 public:
  explicit Compactor(GuestVm* vm);

  // One synchronous compaction pass over all zones: evacuates up to
  // `max_blocks` sparsely used pageblocks (buddy) / areas (LLFree).
  // Returns the number of huge blocks freed.
  uint64_t CompactPass(uint64_t max_blocks);

  uint64_t blocks_compacted() const { return blocks_compacted_; }
  // Base frames migrated out of evacuated blocks (the §4.14 "compaction
  // migrations" bench metric).
  uint64_t frames_migrated() const { return frames_migrated_; }

 private:
  bool TryCompactBlock(Zone& zone, HugeId local_block);

  GuestVm* vm_;
  uint64_t blocks_compacted_ = 0;
  uint64_t frames_migrated_ = 0;
};

}  // namespace hyperalloc::guest

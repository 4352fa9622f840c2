// Per-thread frame caches layered over LLFree's tree reservations
// (DESIGN.md §4.10). The same idiom as Linux's per-CPU page lists: each
// slot holds a small stack of order-0 movable frames so the common
// alloc/free pair touches no shared cache line at all. The cache refills
// and drains in batches via LLFree::GetBatch/PutBatch: a refill is one
// pass of LLFree's claim loop for `refill` runs (one reservation CAS,
// word-at-a-time claims), so even the misses are amortized instead of
// paying `refill` Get transactions.
//
// Discipline: exactly one thread may use a given slot at a time (the
// same rule as LLFree's per-core reservation slots). The stacks are
// non-atomic under that rule, declared Shared<...> (src/base/shared.h)
// so model-check builds verify the discipline: two model threads
// touching one slot without a happens-before edge fail the scenario
// with both access sites. Cross-slot introspection (CachedFrames) and
// Drain are quiescent-use only.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/atomic.h"
#include "src/base/shared.h"
#include "src/base/result.h"
#include "src/base/types.h"
#include "src/llfree/llfree.h"

namespace hyperalloc::llfree {

class FrameCache {
 public:
  struct CacheConfig {
    // Number of cache slots (one per core/thread).
    unsigned slots = 1;
    // Maximum frames parked per slot; a Put that would exceed it drains
    // `refill` frames back in one PutBatch.
    unsigned capacity = 64;
    // Frames pulled per GetBatch refill (and pushed per overflow drain).
    unsigned refill = 32;
  };

  FrameCache(LLFree* alloc, const CacheConfig& config);

  // Order-0 movable allocations are served from the slot's stack,
  // refilling in batches when empty; everything else passes through to
  // the allocator. Runs the refill's claim loop cannot take are retried
  // through single Gets, pressure fallback included, so a refill that
  // claims zero frames means the allocator is genuinely dry (kNoMemory).
  Result<FrameId> Get(unsigned core, unsigned order, AllocType type);

  // Order-0 *movable* frees park in the slot's stack (draining overflow
  // in batches); higher orders and non-movable frees pass through, so
  // frames keep the movability grouping LLFree's slot selection gave
  // them (mirroring the Get-side pass-through). Callers must not free a
  // frame twice: a duplicate parked in the stack is only detected when
  // the allocator refuses it at drain time, in which case the refused
  // frames are dropped (counted in lost_frames()) and the Put that
  // triggered the drain returns kInvalid.
  std::optional<AllocError> Put(unsigned core, FrameId frame, unsigned order,
                                AllocType type);

  // Returns every cached frame to the allocator (quiesce / cache-purge
  // reaction, §3.3). Quiescent-use only. Returns the number of frames
  // the allocator refused (0 unless a caller double-freed into the
  // cache); refused frames are dropped and counted in lost_frames().
  uint64_t Drain();

  // Frames currently parked across all slots. Quiescent-use only.
  uint64_t CachedFrames() const;

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t refills() const { return refills_.load(std::memory_order_relaxed); }
  uint64_t drains() const { return drains_.load(std::memory_order_relaxed); }
  // Frames the allocator refused at drain time (double frees fed to
  // Put). Nonzero means a caller broke the no-double-free discipline.
  uint64_t lost_frames() const {
    return lost_.load(std::memory_order_relaxed);
  }

  const CacheConfig& cache_config() const { return config_; }

 private:
  struct alignas(64) Slot {
    Shared<std::vector<FrameId>> frames;
  };

  LLFree* alloc_;
  CacheConfig config_;
  std::unique_ptr<Slot[]> slots_;
  Atomic<uint64_t> hits_{0};
  Atomic<uint64_t> refills_{0};
  Atomic<uint64_t> drains_{0};
  Atomic<uint64_t> lost_{0};
};

}  // namespace hyperalloc::llfree

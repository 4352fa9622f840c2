// Lock-free bit field covering one LLFree area (512 base frames = eight
// 64-bit words = one cache line). Bit = 1 means the base frame is
// allocated. Allocations of order 0..6 are naturally aligned runs within
// a single word and therefore single-CAS transactions.
#pragma once

#include <cstdint>

#include "src/base/atomic.h"
#include "src/base/types.h"

namespace hyperalloc::llfree {

inline constexpr unsigned kWordsPerArea = kFramesPerHuge / 64;  // 8
// Orders 0..6 fit in one 64-bit word (single-CAS transactions); orders
// 7..8 span 2/4 whole words and are claimed word-by-word with rollback;
// order 9 is handled by the area entry's allocated flag and never touches
// the bit field.
inline constexpr unsigned kMaxBitfieldOrder = 8;
inline constexpr unsigned kMaxSingleWordOrder = 6;

// A view over the 8 words of one area within the global bitfield array.
class AreaBits {
 public:
  explicit AreaBits(Atomic<uint64_t>* words) : words_(words) {}

  // Claims up to `count` naturally aligned runs of 2^order zero bits
  // (orders 0..8), lowest offsets first. Orders 0..6 claim word-at-a-time:
  // every run found within one word is taken by a single CAS, so one CAS
  // can claim up to 64 base frames. Orders 7..8 claim one multi-word run
  // per iteration. Writes the frame offset of each claimed run to
  // `offsets` (capacity >= count) and returns the number claimed; fewer
  // than `count` means the area ran out of runs of this order.
  unsigned Set(unsigned order, unsigned count, unsigned* offsets);

  // Clears a previously set run. Returns false (and changes nothing) if
  // any bit in the run was already clear — i.e. a double free.
  bool Clear(unsigned offset, unsigned order);

  // Batched clear: clears every bit in `mask` within word `w` with one
  // CAS (the put-side counterpart of Set; `mask` is a union of
  // previously claimed single-word runs). Returns false — changing
  // nothing — if any bit in the mask is already clear (double free
  // somewhere in the batch; the caller falls back to per-run clears to
  // identify it).
  bool ClearMask(unsigned w, uint64_t mask);

  // Returns true if all 2^order bits at `offset` are zero.
  bool IsFree(unsigned offset, unsigned order) const;

  // Number of set (allocated) bits in the area.
  unsigned CountSet() const;

  // Sets all 512 bits (used when the covering huge frame is carved out of
  // a fresh area for base allocations bookkeeping — not in the hot path).
  void FillAll();

 private:
  unsigned SetMultiWord(unsigned order, unsigned count, unsigned* offsets);

  Atomic<uint64_t>* words_;
};

}  // namespace hyperalloc::llfree

#include "src/llfree/bitfield.h"

#include <bit>

#include "src/base/check.h"

namespace hyperalloc::llfree {

unsigned AreaBits::Set(unsigned order, unsigned count, unsigned* offsets) {
  HA_CHECK(order <= kMaxBitfieldOrder);
  if (order > kMaxSingleWordOrder) {
    return SetMultiWord(order, count, offsets);
  }
  const unsigned run = 1u << order;
  const uint64_t mask = (order == 6) ? ~0ull : ((1ull << run) - 1);
  unsigned claimed = 0;

  for (unsigned w = 0; w < kWordsPerArea && claimed < count; ++w) {
    Atomic<uint64_t>& word = words_[w];
    uint64_t current = word.load(std::memory_order_acquire);
    for (;;) {
      // Build a claim mask covering as many free aligned runs as this
      // word holds (up to the remaining count), then take them all with
      // one CAS.
      uint64_t claim = 0;
      unsigned runs = 0;
      if (order == 0) {
        // countr_one on the occupied view jumps straight to the lowest
        // zero bit — no per-position scan.
        uint64_t occupied = current;
        while (runs < count - claimed) {
          const unsigned pos =
              static_cast<unsigned>(std::countr_one(occupied));
          if (pos >= 64) {
            break;
          }
          claim |= 1ull << pos;
          occupied |= 1ull << pos;
          ++runs;
        }
      } else {
        for (unsigned pos = 0; pos < 64 && runs < count - claimed;
             pos += run) {
          if (((current | claim) & (mask << pos)) == 0) {
            claim |= mask << pos;
            ++runs;
          }
        }
      }
      if (runs == 0) {
        break;  // word full for this order; next word
      }
      if (word.compare_exchange_weak(current, current | claim,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        // Extract the claimed run offsets from the claim mask.
        uint64_t picked = claim;
        while (picked != 0) {
          const unsigned pos =
              static_cast<unsigned>(std::countr_zero(picked));
          offsets[claimed++] = w * 64 + pos;
          picked &= ~(mask << pos);
        }
        break;
      }
      // CAS failed: `current` reloaded; rebuild the claim for this word.
    }
  }
  return claimed;
}

unsigned AreaBits::SetMultiWord(unsigned order, unsigned count,
                                unsigned* offsets) {
  // Orders 7..8 cover 2/4 naturally aligned whole words. Each iteration
  // claims one run word-by-word (each word 0 -> ~0); on a conflict, it
  // rolls back the words already taken and moves to the next run.
  // Lock-free: every step is a CAS, rollback cannot fail.
  const unsigned words_per_run = (1u << order) / 64;
  const unsigned num_runs = kWordsPerArea / words_per_run;
  unsigned claimed = 0;
  for (unsigned r = 0; r < num_runs && claimed < count; ++r) {
    const unsigned base = r * words_per_run;
    unsigned taken = 0;
    for (; taken < words_per_run; ++taken) {
      uint64_t expected = 0;
      if (!words_[base + taken].compare_exchange_strong(
              expected, ~0ull, std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        break;
      }
    }
    if (taken == words_per_run) {
      offsets[claimed++] = base * 64;
      continue;
    }
    while (taken-- > 0) {
      words_[base + taken].store(0, std::memory_order_release);
    }
  }
  return claimed;
}

bool AreaBits::Clear(unsigned offset, unsigned order) {
  HA_CHECK(order <= kMaxBitfieldOrder);
  const unsigned run = 1u << order;
  HA_CHECK(offset % run == 0);
  HA_CHECK(offset + run <= kFramesPerHuge);
  if (order > kMaxSingleWordOrder) {
    // Reject plainly-invalid frees first (some word not fully set), then
    // claim the free via CAS on the first word so that two racing frees
    // of the same run cannot both succeed (the previous load-check +
    // plain stores let both pass the check and double-credit the
    // counters). Whoever wins the first-word CAS owns the whole run: no
    // other allocation can exist inside it, so the remaining words must
    // still be ~0 when released.
    const unsigned words_per_run = run / 64;
    const unsigned base = offset / 64;
    for (unsigned w = 0; w < words_per_run; ++w) {
      if (words_[base + w].load(std::memory_order_acquire) != ~0ull) {
        return false;  // not an allocated run of this order
      }
    }
    uint64_t expected = ~0ull;
    if (!words_[base].compare_exchange_strong(expected, 0,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      return false;  // double free
    }
    for (unsigned w = 1; w < words_per_run; ++w) {
      const uint64_t word = words_[base + w].exchange(
          0, std::memory_order_acq_rel);
      HA_CHECK(word == ~0ull);  // run owner: words cannot change under us
    }
    return true;
  }
  const uint64_t mask = (order == 6) ? ~0ull : ((1ull << run) - 1);
  const unsigned w = offset / 64;
  const unsigned shift = offset % 64;

  Atomic<uint64_t>& word = words_[w];
  uint64_t current = word.load(std::memory_order_acquire);
  for (;;) {
    if ((current & (mask << shift)) != (mask << shift)) {
      return false;  // double free (some bit already clear)
    }
    const uint64_t desired = current & ~(mask << shift);
    if (word.compare_exchange_weak(current, desired,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      return true;
    }
  }
}

bool AreaBits::ClearMask(unsigned w, uint64_t mask) {
  HA_CHECK(w < kWordsPerArea);
  HA_CHECK(mask != 0);
  Atomic<uint64_t>& word = words_[w];
  uint64_t current = word.load(std::memory_order_acquire);
  for (;;) {
    if ((current & mask) != mask) {
      return false;  // some bit already clear: double free in the batch
    }
    if (word.compare_exchange_weak(current, current & ~mask,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      return true;
    }
  }
}

bool AreaBits::IsFree(unsigned offset, unsigned order) const {
  const unsigned run = 1u << order;
  HA_CHECK(order <= kMaxBitfieldOrder);
  HA_CHECK(offset % run == 0 && offset + run <= kFramesPerHuge);
  if (order > kMaxSingleWordOrder) {
    for (unsigned w = offset / 64; w < (offset + run) / 64; ++w) {
      if (words_[w].load(std::memory_order_acquire) != 0) {
        return false;
      }
    }
    return true;
  }
  const uint64_t mask = (order == 6) ? ~0ull : ((1ull << run) - 1);
  const uint64_t word = words_[offset / 64].load(std::memory_order_acquire);
  return (word & (mask << (offset % 64))) == 0;
}

unsigned AreaBits::CountSet() const {
  unsigned total = 0;
  for (unsigned w = 0; w < kWordsPerArea; ++w) {
    total += static_cast<unsigned>(
        std::popcount(words_[w].load(std::memory_order_relaxed)));
  }
  return total;
}

void AreaBits::FillAll() {
  for (unsigned w = 0; w < kWordsPerArea; ++w) {
    words_[w].store(~0ull, std::memory_order_release);
  }
}

}  // namespace hyperalloc::llfree

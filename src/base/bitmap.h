// Range operations over a 1-bit-per-item bitmap packed into uint64_t
// words (bit i lives at bit i % 64 of word i / 64). Each operation masks
// the first and last word of [first, first+count) and handles every word
// in between whole, so a 2 MiB frame's 512 bits cost 8 word operations
// instead of 512 single-bit read-modify-writes. Callers bounds-check the
// range; a count of 0 touches no word.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

namespace hyperalloc {

namespace internal {

// Calls fn(word, mask) once for each word that [first, first+count)
// touches, in ascending order; mask selects the range's bits in it.
template <typename Fn>
inline void ForEachRangeWord(uint64_t first, uint64_t count, Fn fn) {
  if (count == 0) {
    return;
  }
  const uint64_t last_bit = first + count - 1;
  const uint64_t last = last_bit / 64;
  const uint64_t head = ~0ull << (first % 64);
  const uint64_t tail = ~0ull >> (63 - last_bit % 64);
  uint64_t word = first / 64;
  if (word == last) {
    fn(word, head & tail);
    return;
  }
  fn(word, head);
  for (++word; word < last; ++word) {
    fn(word, ~0ull);
  }
  fn(last, tail);
}

}  // namespace internal

// Sets bits [first, first+count).
inline void SetBits(std::span<uint64_t> words, uint64_t first,
                    uint64_t count) {
  internal::ForEachRangeWord(first, count, [&](uint64_t w, uint64_t mask) {
    words[w] |= mask;
  });
}

// Clears bits [first, first+count). Returns how many of them were set.
inline uint64_t ClearBits(std::span<uint64_t> words, uint64_t first,
                          uint64_t count) {
  uint64_t cleared = 0;
  internal::ForEachRangeWord(first, count, [&](uint64_t w, uint64_t mask) {
    cleared += static_cast<uint64_t>(std::popcount(words[w] & mask));
    words[w] &= ~mask;
  });
  return cleared;
}

// Number of set bits in [first, first+count).
inline uint64_t CountBits(std::span<const uint64_t> words, uint64_t first,
                          uint64_t count) {
  uint64_t set = 0;
  internal::ForEachRangeWord(first, count, [&](uint64_t w, uint64_t mask) {
    set += static_cast<uint64_t>(std::popcount(words[w] & mask));
  });
  return set;
}

}  // namespace hyperalloc

// The monitor's authoritative per-huge-frame reclamation state R (paper
// §3.2): Installed / Soft-reclaimed / Hard-reclaimed. Host-private (the
// guest never sees it; the evicted hint E is its one-way shadow).
//
// Packed 2 bits per frame into 64-bit words, exactly as assumed by the
// paper's scan-cost analysis (§3.3): together with the 16-bit guest area
// entries, scanning 1 GiB of guest memory touches
// 2*512/(8*64) + 16*512/(8*64) = 18 consecutive cache lines.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/base/check.h"
#include "src/base/types.h"
#include "src/trace/trace.h"

namespace hyperalloc::core {

enum class ReclaimState : uint8_t {
  kInstalled = 0,    // I: backed by host memory (M=1)
  kSoft = 1,         // S: reclaimed, repopulated on guest install
  kHard = 2,         // H: reclaimed, not available to the guest
  kQuarantined = 3,  // Q: poisoned by an unrecoverable fault (absorbing)
};

// Legal edges of the paper's Fig. 2 state machine (self-loops are no-op
// re-stores and always fine): I->S (soft/auto reclaim), I->H (direct hard
// reclaim), S->I (install), S->H (reclaim untouched), H->S (return).
// H->I is not an edge: hard-reclaimed memory is outside the guest's hard
// limit and must be returned (H->S) before it can be installed.
//
// Fault extension (DESIGN.md §4.9): any state may transition to Q when a
// permanent fault (or retry exhaustion on an unpin) leaves the frame's
// host-side mapping in doubt; Q is absorbing — a quarantined frame is
// withheld from the guest and from every future reclaim pass, so no
// Q->{I,S,H} edge exists. The model-checking oracle
// (src/check/invariants.h) and a debug check in Set() enforce all of
// this.
constexpr bool IsLegalTransition(ReclaimState from, ReclaimState to) {
  if (from == to) {
    return true;
  }
  if (from == ReclaimState::kQuarantined) {
    return false;  // absorbing
  }
  if (to == ReclaimState::kQuarantined) {
    return true;  // any state may be poisoned
  }
  return !(from == ReclaimState::kHard && to == ReclaimState::kInstalled);
}

class ReclaimStateArray {
 public:
  explicit ReclaimStateArray(uint64_t num_huge)
      : num_huge_(num_huge), words_((num_huge * 2 + 63) / 64, 0) {}

  uint64_t size() const { return num_huge_; }

  ReclaimState Get(HugeId huge) const {
    HA_DCHECK(huge < num_huge_);
    const uint64_t word = words_[huge / 32];
    return static_cast<ReclaimState>((word >> ((huge % 32) * 2)) & 0x3);
  }

  void Set(HugeId huge, ReclaimState state) {
    HA_DCHECK(huge < num_huge_);
    HA_DCHECK(IsLegalTransition(Get(huge), state));
#if HYPERALLOC_TRACE
    const ReclaimState old = Get(huge);
    if (old != state) {
      CountTransition(old, state);
    }
#endif
    uint64_t& word = words_[huge / 32];
    const unsigned shift = (huge % 32) * 2;
    word = (word & ~(0x3ull << shift)) |
           (static_cast<uint64_t>(state) << shift);
  }

  uint64_t CountState(ReclaimState state) const {
    uint64_t count = 0;
    for (HugeId h = 0; h < num_huge_; ++h) {
      if (Get(h) == state) {
        ++count;
      }
    }
    return count;
  }

  // Bytes of state scanned by one pass (for the §3.3 cache-load claim).
  uint64_t ByteSize() const { return words_.size() * sizeof(uint64_t); }

  const std::vector<uint64_t>& words() const { return words_; }

 private:
#if HYPERALLOC_TRACE
  // Counts the R-array transition (the paper's I/S/H state machine edges,
  // Fig. 2). Counter lookups are cached once per process.
  static void CountTransition(ReclaimState from, ReclaimState to) {
    static const std::array<trace::Counter*, 16> counters = [] {
      constexpr const char* kNames[16] = {
          nullptr,                           // I -> I
          "state.installed_to_soft",         // I -> S (auto/soft reclaim)
          "state.installed_to_hard",         // I -> H (direct hard reclaim)
          "state.installed_to_quarantined",  // I -> Q (poisoned)
          "state.soft_to_installed",         // S -> I (install)
          nullptr,                           // S -> S
          "state.soft_to_hard",              // S -> H (reclaim untouched)
          "state.soft_to_quarantined",       // S -> Q (poisoned)
          "state.hard_to_installed",         // H -> I
          "state.hard_to_soft",              // H -> S (return)
          nullptr,                           // H -> H
          "state.hard_to_quarantined",       // H -> Q (poisoned)
          nullptr,                           // Q -> I (illegal)
          nullptr,                           // Q -> S (illegal)
          nullptr,                           // Q -> H (illegal)
          nullptr,                           // Q -> Q
      };
      std::array<trace::Counter*, 16> out{};
      for (unsigned i = 0; i < 16; ++i) {
        out[i] = kNames[i] == nullptr
                     ? nullptr
                     : &trace::CounterRegistry::Global().FindOrCreate(
                           kNames[i]);
      }
      return out;
    }();
    trace::Counter* counter =
        counters[static_cast<unsigned>(from) * 4 + static_cast<unsigned>(to)];
    if (counter != nullptr) {
      counter->Add(1);
    }
  }
#endif

  uint64_t num_huge_;
  std::vector<uint64_t> words_;
};

}  // namespace hyperalloc::core

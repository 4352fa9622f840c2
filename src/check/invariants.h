// Invariant oracles for the LLFree shared state, used by the model-check
// scenarios (tests/model_check_test.cc, after every schedule point) and
// by the stress tests (tests/llfree_concurrent_test.cc, at quiescent
// points). Header-only and build-agnostic: all reads go through the
// hyperalloc::Atomic alias, so the same oracle code works against
// std::atomic and against the model-check shim (where oracle reads are
// not schedule points — the engine masks them).
//
// Step invariants vs quiescent invariants: LLFree's transactions
// consistently remove resources from counters *before* taking them and
// give them back in the opposite order (e.g. Get debits the reservation
// before claiming bits; Put clears bits and credits the area before the
// reservation). Mid-transaction the counters therefore under-promise,
// never over-promise, which is exactly what makes the allocator safe
// under concurrency — and what CheckStepInvariants asserts as
// inequalities that hold at *every* schedule point. The exact equalities
// only hold at quiescence and are asserted by CheckQuiescent via
// LLFree::Validate().
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/types.h"
#include "src/check/scheduler.h"
#include "src/core/reclaim_states.h"
#include "src/hv/host_memory.h"
#include "src/llfree/bitfield.h"
#include "src/llfree/entries.h"
#include "src/llfree/llfree.h"

namespace hyperalloc::check {

// The atomic bit field under test, by its role in the scenarios.
using AtomicBitfield = llfree::AreaBits;

// Allocated (set) bits of one area's bit-field words.
inline unsigned AreaPopCount(const llfree::SharedState& state,
                             uint64_t area) {
  unsigned total = 0;
  for (unsigned w = 0; w < llfree::kWordsPerArea; ++w) {
    total += static_cast<unsigned>(std::popcount(
        state.bitfield()[area * llfree::kWordsPerArea + w].load(
            std::memory_order_acquire)));
  }
  return total;
}

// Invariants that hold after *every* instrumented memory operation:
//
//  (1) per area: free counter + allocated bits <= 512 (a transaction
//      debits the counter before setting bits, credits it after clearing
//      them — the sum dips mid-flight, never overshoots);
//  (2) per tree: tree free counter + all active reservations parked on
//      the tree <= sum of the tree's area counters (same argument one
//      level up: Get debits top-down, Put credits bottom-up);
//  (3) a huge-allocated area (A=1: guest huge frame or hard reclaim)
//      advertises no free frames.
inline void CheckStepInvariants(const llfree::SharedState& state) {
  const unsigned per_tree = state.config().areas_per_tree;
  std::vector<uint64_t> area_sum(state.num_trees(), 0);

  for (uint64_t a = 0; a < state.num_areas(); ++a) {
    const llfree::AreaEntry entry = llfree::AreaEntry::Unpack(
        state.areas()[a].load(std::memory_order_acquire));
    const unsigned pop = AreaPopCount(state, a);
    Require(entry.free + pop <= kFramesPerHuge,
            "area " + std::to_string(a) + ": free counter " +
                std::to_string(entry.free) + " + popcount " +
                std::to_string(pop) + " exceeds 512 (double credit)");
    Require(!entry.allocated || entry.free == 0,
            "area " + std::to_string(a) +
                ": huge-allocated but free counter is " +
                std::to_string(entry.free));
    area_sum[a / per_tree] += entry.free;
  }

  std::vector<uint64_t> counted(state.num_trees(), 0);
  for (uint64_t t = 0; t < state.num_trees(); ++t) {
    counted[t] = llfree::TreeEntry::Unpack(
                     state.trees()[t].load(std::memory_order_acquire))
                     .free;
  }
  for (unsigned s = 0; s < state.config().NumSlots(); ++s) {
    const llfree::Reservation r = llfree::Reservation::Unpack(
        state.reservations()[s].load(std::memory_order_acquire));
    if (r.active && r.tree < state.num_trees()) {
      counted[r.tree] += r.free;
    }
  }
  for (uint64_t t = 0; t < state.num_trees(); ++t) {
    Require(counted[t] <= area_sum[t],
            "tree " + std::to_string(t) + ": counter + reservations " +
                std::to_string(counted[t]) + " exceed the " +
                std::to_string(area_sum[t]) +
                " frames its areas advertise (double credit)");
  }
}

// Quiescent check (no in-flight operations): the counters must agree
// *exactly* across all levels. Delegates to LLFree::Validate().
inline void CheckQuiescent(const llfree::LLFree& ll) {
  Require(ll.Validate(),
          "quiescent state inconsistent (LLFree::Validate failed; see "
          "stderr for the first violation)");
}

// Host frame pool (src/hv/host_memory.h): admission is one CAS on
// `used`, so at every step the pool has not overcommitted.
inline void CheckHostMemoryStep(const hv::HostMemory& pool) {
  const uint64_t used = pool.used_frames();
  Require(used <= pool.total_frames(),
          "host pool: used " + std::to_string(used) + " exceeds total " +
              std::to_string(pool.total_frames()) + " (overcommit)");
}

// Quiescent: the CAS-max peak has caught up with the last admission and
// never exceeds the pool.
inline void CheckHostMemoryQuiescent(const hv::HostMemory& pool) {
  CheckHostMemoryStep(pool);
  const uint64_t used = pool.used_frames();
  Require(pool.peak_frames() >= used,
          "host pool quiescent: peak " +
              std::to_string(pool.peak_frames()) + " below current used " +
              std::to_string(used) + " (lost high-water update)");
  Require(pool.peak_frames() <= pool.total_frames(),
          "host pool quiescent: peak " +
              std::to_string(pool.peak_frames()) + " exceeds total " +
              std::to_string(pool.total_frames()));
}

// Watches a ReclaimStateArray for illegal transitions of the paper's
// Fig. 2 state machine extended with the fault-quarantine state
// (Hard -> Installed is illegal — hard-reclaimed memory must be returned
// H -> S before it can be installed — and Quarantined is absorbing: no
// Q -> {I,S,H} edge exists, see src/core/reclaim_states.h). Register
// via Execution::OnStep. Every R transition in the code under test is
// separated from the next by instrumented LLFree operations, so the
// oracle observes each edge individually.
class ReclaimTransitionOracle {
 public:
  explicit ReclaimTransitionOracle(const core::ReclaimStateArray* states)
      : states_(states), prev_(states->size()) {
    for (HugeId h = 0; h < states_->size(); ++h) {
      prev_[h] = states_->Get(h);
    }
  }

  void operator()() {
    for (HugeId h = 0; h < states_->size(); ++h) {
      const core::ReclaimState cur = states_->Get(h);
      Require(core::IsLegalTransition(prev_[h], cur),
              "huge frame " + std::to_string(h) +
                  ": illegal reclaim-state transition " +
                  std::to_string(static_cast<unsigned>(prev_[h])) +
                  " -> " + std::to_string(static_cast<unsigned>(cur)) +
                  " (H->I needs a return first; Q is absorbing)");
      prev_[h] = cur;
    }
  }

 private:
  const core::ReclaimStateArray* states_;
  std::vector<core::ReclaimState> prev_;
};

// Minimal model of the host-side EPT/IOMMU pin counts: scenarios call
// Pin/Unpin where the real monitor would map/unmap, and the model fails
// the execution on underflow (unpinning a frame that was never pinned —
// the DMA-unsafety the paper's install handshake exists to prevent).
class PinModel {
 public:
  explicit PinModel(uint64_t num_huge) : pins_(num_huge, 0) {}

  void Pin(HugeId huge) { ++pins_.at(huge); }

  void Unpin(HugeId huge) {
    Require(pins_.at(huge) > 0,
            "huge frame " + std::to_string(huge) +
                ": pin count underflow (unpin without matching pin)");
    --pins_.at(huge);
  }

  bool IsPinned(HugeId huge) const { return pins_.at(huge) > 0; }

 private:
  std::vector<uint32_t> pins_;
};

// Tracks which frames the scenario's threads believe they own. Threads
// call Acquire right after a successful Get and Release right before
// Put; Acquire fails the execution if the allocator handed the same
// frame out twice. Check() additionally asserts, word-wise against the
// bit field, that every owned base frame is still marked allocated (the
// allocator must not free or re-issue memory under its owner); register
// it via OnStep. Not internally synchronized — model threads are
// sequentialized by the engine, which is all the synchronization needed.
class OwnershipOracle {
 public:
  explicit OwnershipOracle(const llfree::SharedState& state)
      : state_(&state),
        owned_(state.num_areas() * llfree::kWordsPerArea, 0),
        owned_huge_(state.num_areas(), 0) {}

  void Acquire(FrameId frame, unsigned order) {
    ForEachWord(frame, order, [&](uint64_t w, uint64_t mask) {
      Require((owned_[w] & mask) == 0,
              "frame run at " + std::to_string(frame) +
                  " handed out twice (order " + std::to_string(order) +
                  ")");
      owned_[w] |= mask;
    });
  }

  void Release(FrameId frame, unsigned order) {
    ForEachWord(frame, order, [&](uint64_t w, uint64_t mask) {
      Require((owned_[w] & mask) == mask,
              "releasing frame run at " + std::to_string(frame) +
                  " that is not owned (order " + std::to_string(order) +
                  ")");
      owned_[w] &= ~mask;
    });
  }

  void AcquireHuge(HugeId huge) {
    Require(owned_huge_.at(huge) == 0,
            "huge frame " + std::to_string(huge) + " handed out twice");
    owned_huge_[huge] = 1;
  }

  void ReleaseHuge(HugeId huge) {
    Require(owned_huge_.at(huge) == 1,
            "releasing huge frame " + std::to_string(huge) +
                " that is not owned");
    owned_huge_[huge] = 0;
  }

  // Owned frames must be a subset of allocated frames at every step.
  void operator()() const {
    const uint64_t words = state_->num_areas() * llfree::kWordsPerArea;
    for (uint64_t w = 0; w < words; ++w) {
      const uint64_t bits =
          state_->bitfield()[w].load(std::memory_order_acquire);
      Require((owned_[w] & ~bits) == 0,
              "bit-field word " + std::to_string(w) +
                  ": an owned base frame is marked free (allocator freed "
                  "memory under its owner)");
    }
    for (uint64_t a = 0; a < state_->num_areas(); ++a) {
      if (owned_huge_[a] != 0) {
        Require(llfree::AreaEntry::Unpack(
                    state_->areas()[a].load(std::memory_order_acquire))
                    .allocated,
                "area " + std::to_string(a) +
                    ": owned huge frame lost its allocated flag");
      }
    }
  }

 private:
  template <typename F>
  void ForEachWord(FrameId frame, unsigned order, F&& f) {
    const uint64_t run = 1ull << order;
    Require(order <= llfree::kMaxBitfieldOrder && frame % run == 0 &&
                frame + run <= state_->frames(),
            "Acquire/Release: frame " + std::to_string(frame) +
                " order " + std::to_string(order) + " out of range");
    for (uint64_t i = frame; i < frame + run; i += 64) {
      const uint64_t w = i / 64;
      const uint64_t span = run < 64 ? run : 64;
      const uint64_t mask =
          (span == 64 ? ~0ull : ((1ull << span) - 1)) << (i % 64);
      f(w, mask);
    }
  }

  const llfree::SharedState* state_;
  std::vector<uint64_t> owned_;
  std::vector<uint8_t> owned_huge_;
};

}  // namespace hyperalloc::check

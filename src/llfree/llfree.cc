#include "src/llfree/llfree.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "src/base/check.h"
#include "src/trace/trace.h"

namespace hyperalloc::llfree {

namespace {

constexpr uint64_t kWordsPerArea64 = kFramesPerHuge / 64;

}  // namespace

SharedState::SharedState(uint64_t frames, const Config& config)
    : frames_(frames), config_(config) {
  HA_CHECK(frames > 0);
  HA_CHECK(frames % kFramesPerHuge == 0);
  HA_CHECK(config.areas_per_tree > 0);
  // A tree's free count lives in the 16-bit counters of TreeEntry and
  // Reservation; a larger tree would overflow them.
  HA_CHECK(uint64_t{config.areas_per_tree} * kFramesPerHuge <=
           TreeEntry::kFreeMask);
  HA_CHECK(config.NumSlots() > 0);

  num_areas_ = frames / kFramesPerHuge;
  num_trees_ = (num_areas_ + config.areas_per_tree - 1) / config.areas_per_tree;

  const uint64_t bitfield_words = frames / 64;
  bitfield_ = std::make_unique<Atomic<uint64_t>[]>(bitfield_words);
  for (uint64_t i = 0; i < bitfield_words; ++i) {
    bitfield_[i].store(0, std::memory_order_relaxed);
  }

  areas_ = std::make_unique<Atomic<uint16_t>[]>(num_areas_);
  AreaEntry fresh_area;
  fresh_area.free = kFramesPerHuge;
  for (uint64_t i = 0; i < num_areas_; ++i) {
    areas_[i].store(fresh_area.Pack(), std::memory_order_relaxed);
  }

  trees_ = std::make_unique<Atomic<uint32_t>[]>(num_trees_);
  for (uint64_t t = 0; t < num_trees_; ++t) {
    const uint64_t first = t * config.areas_per_tree;
    const uint64_t count = std::min<uint64_t>(config.areas_per_tree,
                                              num_areas_ - first);
    TreeEntry entry;
    entry.free = static_cast<uint32_t>(count * kFramesPerHuge);
    entry.type = AllocType::kMovable;
    trees_[t].store(entry.Pack(), std::memory_order_relaxed);
  }

  const unsigned slots = config.NumSlots();
  reservations_ = std::make_unique<Atomic<uint64_t>[]>(slots);
  tree_hints_ = std::make_unique<Atomic<uint64_t>[]>(slots);
  for (unsigned s = 0; s < slots; ++s) {
    reservations_[s].store(Reservation{}.Pack(), std::memory_order_relaxed);
    // Spread initial search positions so slots start in different trees.
    tree_hints_[s].store((num_trees_ * s) / slots, std::memory_order_relaxed);
  }

  // Every bit starts set: a set bit promises nothing, so raw tree-entry
  // stores before the first failing search need not touch the summary.
  tree_summary_ = std::make_unique<Atomic<uint64_t>[]>(summary_words());
  MarkEveryTreeOccupied();
}

void SharedState::MarkEveryTreeOccupied() {
  for (uint64_t w = 0; w < summary_words(); ++w) {
    const uint64_t trees = std::min<uint64_t>(64, num_trees_ - w * 64);
    tree_summary_[w].fetch_or(trees == 64 ? ~0ull : (1ull << trees) - 1,
                              std::memory_order_seq_cst);
  }
}

uint64_t SharedState::SharedBytes() const {
  return frames_ / 8                      // bit field
         + num_areas_ * sizeof(uint16_t)  // area index
         + num_trees_ * sizeof(uint32_t); // tree index
}

LLFree::LLFree(SharedState* state) : state_(state) { HA_CHECK(state != nullptr); }

unsigned LLFree::SlotFor(unsigned core, AllocType type) const {
  if (config().mode == Config::ReservationMode::kPerCore) {
    return core % config().cores;
  }
  return static_cast<unsigned>(type);
}

AreaBits LLFree::BitsOf(uint64_t area) const {
  return AreaBits(state_->bitfield_.get() + area * kWordsPerArea64);
}

uint64_t LLFree::AreasInTree(uint64_t tree) const {
  const uint64_t first = FirstAreaOf(tree);
  HA_DCHECK(first < num_areas());
  return std::min<uint64_t>(config().areas_per_tree, num_areas() - first);
}

uint64_t LLFree::TreeCapacity(uint64_t tree) const {
  return AreasInTree(tree) * kFramesPerHuge;
}

// ----------------------------------------------------------------------
// Reservation management
// ----------------------------------------------------------------------

std::optional<uint64_t> LLFree::TakeUpToFromReservation(unsigned slot,
                                                        unsigned run,
                                                        unsigned max_runs,
                                                        unsigned* taken_runs) {
  Atomic<uint64_t>& slot_atom = state_->reservations_[slot];
  for (;;) {
    uint64_t raw = slot_atom.load(std::memory_order_acquire);
    const Reservation r = Reservation::Unpack(raw);
    if (!r.active) {
      return std::nullopt;
    }
    const unsigned avail_runs = r.free / run;
    if (avail_runs > 0) {
      const unsigned take = std::min(avail_runs, max_runs);
      Reservation next = r;
      next.free = static_cast<uint16_t>(r.free - take * run);
      uint64_t expected = raw;
      if (slot_atom.compare_exchange_weak(expected, next.Pack(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        *taken_runs = take;
        return r.tree;
      }
      continue;  // raced; retry
    }
    if (!ReStealIntoReservation(slot, raw)) {
      return std::nullopt;  // genuinely dry; caller reserves a new tree
    }
  }
}

bool LLFree::ReStealIntoReservation(unsigned slot, uint64_t raw) {
  // Local counter dry: re-steal whatever the reserved tree accumulated
  // from frees since we reserved it ("put-reserve" resync). The count is
  // read from the value AtomicUpdate replaced, never from a capture: the
  // lambda may run several times, and a retry that aborts on an empty
  // counter would otherwise leave the losing attempt's count behind and
  // credit frames another thread already took.
  const Reservation r = Reservation::Unpack(raw);
  const std::optional<uint32_t> old = AtomicUpdate(
      state_->trees_[r.tree],
      [](uint32_t tree_raw) -> std::optional<uint32_t> {
        TreeEntry entry = TreeEntry::Unpack(tree_raw);
        if (entry.free == 0) {
          return std::nullopt;
        }
        entry.free = 0;
        return entry.Pack();
      });
  if (!old.has_value()) {
    return false;
  }
  const uint32_t stolen = TreeEntry::Unpack(*old).free;
  Reservation next = r;
  next.free = static_cast<uint16_t>(r.free + stolen);
  uint64_t expected = raw;
  if (!state_->reservations_[slot].compare_exchange_strong(
          expected, next.Pack(), std::memory_order_acq_rel,
          std::memory_order_acquire)) {
    // Reservation changed under us: return the stolen frames to the
    // tree's global counter; the caller starts over.
    CreditTree(r.tree, stolen);
  }
  return true;
}

void LLFree::GiveBack(unsigned slot, uint64_t tree, unsigned need) {
  Atomic<uint64_t>& slot_atom = state_->reservations_[slot];
  for (;;) {
    uint64_t raw = slot_atom.load(std::memory_order_acquire);
    const Reservation r = Reservation::Unpack(raw);
    if (r.active && r.tree == tree) {
      Reservation next = r;
      next.free = static_cast<uint16_t>(r.free + need);
      uint64_t expected = raw;
      if (slot_atom.compare_exchange_weak(expected, next.Pack(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        return;
      }
      continue;
    }
    // Reservation moved on; credit the tree directly.
    CreditTree(tree, need);
    return;
  }
}

void LLFree::CreditTree(uint64_t tree, uint32_t frames, bool unreserve) {
  // The credit and the summary load below pair with ForgetEmptyTrees'
  // clear and re-check (a store-buffering pattern): all four are
  // seq_cst, so at least one side sees the other and a credit from 0
  // never leaves the tree's bit clear (DESIGN.md §4.1).
  Atomic<uint32_t>& atom = state_->trees_[tree];
  uint32_t old_raw = atom.load(std::memory_order_acquire);
  for (;;) {
    TreeEntry next = TreeEntry::Unpack(old_raw);
    next.free += frames;
    next.reserved = next.reserved && !unreserve;
    if (atom.compare_exchange_weak(old_raw, next.Pack(),
                                   std::memory_order_seq_cst,
                                   std::memory_order_acquire)) {
      break;
    }
  }
  if (frames == 0 || TreeEntry::Unpack(old_raw).free != 0) {
    return;
  }
  Atomic<uint64_t>& word = state_->tree_summary_[tree / 64];
  const uint64_t bit = 1ull << (tree % 64);
  if ((word.load(std::memory_order_seq_cst) & bit) == 0) {
    word.fetch_or(bit, std::memory_order_seq_cst);
  }
}

template <typename Visit>
uint64_t LLFree::ScanOccupied(uint64_t hint, uint64_t from,
                              Visit&& visit) const {
  const uint64_t n = num_trees();
  // Offsets [0, n - hint) are trees [hint, n); the rest wrap to trees
  // [0, hint). Each pass of the outer loop scans one of the two ranges.
  for (uint64_t i = from; i < n;) {
    const uint64_t first = hint + i < n ? hint + i : hint + i - n;
    const uint64_t end = first >= hint ? n : hint;
    const uint64_t shift = i - first;  // offset = tree + shift (mod 2^64)
    for (uint64_t w = first / 64; w * 64 < end; ++w) {
      uint64_t bits =
          state_->tree_summary_[w].load(std::memory_order_acquire);
      if (w == first / 64) {
        bits &= ~0ull << (first % 64);
      }
      if ((w + 1) * 64 > end) {
        bits &= (1ull << (end % 64)) - 1;
      }
      for (; bits != 0; bits &= bits - 1) {
        const uint64_t t = w * 64 + std::countr_zero(bits);
        if (visit(t + shift, t)) {
          return t + shift;
        }
      }
    }
    i = end + shift;
  }
  return n;
}

void LLFree::ForgetEmptyTrees() {
  for (uint64_t w = 0; w < state_->summary_words(); ++w) {
    Atomic<uint64_t>& word = state_->tree_summary_[w];
    uint64_t empty = 0;
    for (uint64_t bits = word.load(std::memory_order_acquire); bits != 0;
         bits &= bits - 1) {
      const uint64_t t = w * 64 + std::countr_zero(bits);
      const uint32_t raw = state_->trees_[t].load(std::memory_order_acquire);
      if (TreeEntry::Unpack(raw).free == 0) {
        empty |= bits & -bits;
      }
    }
    if (empty == 0) {
      continue;
    }
    word.fetch_and(~empty, std::memory_order_seq_cst);
    // The re-check: a credit that loaded the word before the clear left
    // the bit alone, so its frames must be seen here.
    uint64_t refill = 0;
    for (uint64_t bits = empty; bits != 0; bits &= bits - 1) {
      const uint64_t t = w * 64 + std::countr_zero(bits);
      const uint32_t raw = state_->trees_[t].load(std::memory_order_seq_cst);
      if (TreeEntry::Unpack(raw).free != 0) {
        refill |= bits & -bits;
      }
    }
    if (refill != 0) {
      word.fetch_or(refill, std::memory_order_seq_cst);
    }
  }
}

bool LLFree::ReserveNewTree(unsigned slot, AllocType type, unsigned need,
                            std::optional<uint64_t> avoid) {
  const uint64_t n = num_trees();
  // A view over a larger tree index may have left an out-of-range hint;
  // clamp it once here.
  const uint64_t hint =
      state_->tree_hints_[slot].load(std::memory_order_relaxed) % n;

  // Preference passes (paper §4.1/§4.2 reservation policy):
  //   0. same-type trees that are meaningfully used (refill their gaps —
  //      passive defragmentation, the "prefer half depleted" heuristic)
  //   1. *compatible*-type trees with any room: movable and huge
  //      allocations are both movable in Linux terms and may fill each
  //      other's gaps (dense packing across user memory); unmovable
  //      kernel memory stays strictly separated
  //   2. entirely free trees (re-typed on reservation)
  //   3. partially used trees of an incompatible type — last resort, so
  //      that a movable burst does not claim the gaps inside the kernel's
  //      slab trees while free trees exist (this is what makes the
  //      per-type separation effective)
  //   4. anything with room
  constexpr int kPasses = 5;
  const auto compatible = [type](AllocType other) {
    return other == type || (other != AllocType::kUnmovable &&
                             type != AllocType::kUnmovable);
  };
  // Every tree but the last has the same capacity.
  const auto full_cap = static_cast<uint32_t>(TreeCapacity(0));
  // The preference policy proper: the passes that would take tree `t`,
  // one bit per pass. Every pass takes only unreserved trees with room
  // for `need`; most trees of a full zone fail this first test.
  const auto passes_for = [&](uint64_t t, const TreeEntry& entry) {
    if (entry.reserved || entry.free < need) {
      return 0u;
    }
    constexpr unsigned kLastPass = 1u << (kPasses - 1);
    if (avoid.has_value() && t == *avoid) {
      return kLastPass;
    }
    const uint32_t cap =
        t + 1 < n ? full_cap : static_cast<uint32_t>(TreeCapacity(t));
    return unsigned{entry.type == type && entry.free < cap - cap / 8} |
           unsigned{compatible(entry.type) && entry.free < cap} << 1 |
           unsigned{entry.free == cap} << 2 |
           unsigned{entry.free < cap} << 3 | kLastPass;
  };

  // Offsets count trees from the hint. Both the walk and the passes
  // scan only trees whose summary bit is set: a clear bit marks a tree a
  // failing search found empty, which could not have room anyway.
  //
  // One walk from the hint records each pass's first eligible tree. It
  // stops at pass 0's first candidate, the tree tried first; a pass
  // without a candidate by then resumes where the walk stopped. After a
  // full walk, an offset of n means the pass has no candidate and takes
  // no step, so a full zone costs one walk, not five.
  uint64_t start[kPasses];
  std::fill_n(start, kPasses, n);
  unsigned open = (1u << kPasses) - 1;  // passes without a candidate yet
  const uint64_t stop = ScanOccupied(hint, 0, [&](uint64_t i, uint64_t t) {
    const TreeEntry entry =
        TreeEntry::Unpack(state_->trees_[t].load(std::memory_order_acquire));
    const unsigned passes = passes_for(t, entry);
    for (unsigned found = passes & open; found != 0; found &= found - 1) {
      start[std::countr_zero(found)] = i;
    }
    open &= ~passes;
    return (open & 1) == 0;  // pass 0 has its candidate
  });
  if (start[kPasses - 1] == n) {
    // No tree has room (the last pass takes any): the search failed
    // outright, so forget the trees it found empty.
    ForgetEmptyTrees();
    return false;
  }
  const uint64_t walked = stop == n ? n : stop + 1;
  for (uint64_t& offset : start) {
    offset = offset == n ? walked : offset;
  }

  // The passes proper, each from its recorded offset. A tree is
  // re-checked before its CAS, and a lost CAS scans on through the rest
  // of the pass and the later passes.
  for (int pass = 0; pass < kPasses; ++pass) {
    uint64_t tree = n;
    TreeEntry entry;
    ScanOccupied(hint, start[pass], [&](uint64_t, uint64_t t) {
      const uint32_t raw = state_->trees_[t].load(std::memory_order_acquire);
      entry = TreeEntry::Unpack(raw);
      if ((passes_for(t, entry) >> pass & 1) == 0) {
        return false;
      }
      TreeEntry claimed = entry;
      claimed.free = 0;
      claimed.reserved = true;
      claimed.type = type;
      uint32_t expected = raw;
      if (!state_->trees_[t].compare_exchange_strong(
              expected, claimed.Pack(), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        return false;  // raced; try the next tree
      }
      tree = t;
      return true;
    });
    if (tree == n) {
      continue;
    }

    // Publish the new reservation; release the old one.
    Atomic<uint64_t>& slot_atom = state_->reservations_[slot];
    Reservation next;
    next.active = true;
    next.tree = static_cast<uint32_t>(tree);
    next.free = static_cast<uint16_t>(entry.free);
    uint64_t old_raw = slot_atom.load(std::memory_order_acquire);
    while (!slot_atom.compare_exchange_weak(old_raw, next.Pack(),
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
    }
    const Reservation old = Reservation::Unpack(old_raw);
    if (old.active) {
      CreditTree(old.tree, old.free, /*unreserve=*/true);
    }
    // `tree` is below n, so the stored hint is always in range.
    state_->tree_hints_[slot].store(tree, std::memory_order_relaxed);
    HA_COUNT("llfree.reserve_tree");
    return true;
  }
  return false;
}

void LLFree::DrainReservations() {
  const unsigned slots = config().NumSlots();
  for (unsigned s = 0; s < slots; ++s) {
    Atomic<uint64_t>& slot_atom = state_->reservations_[s];
    uint64_t raw = slot_atom.load(std::memory_order_acquire);
    for (;;) {
      const Reservation r = Reservation::Unpack(raw);
      if (!r.active) {
        break;
      }
      if (slot_atom.compare_exchange_weak(raw, Reservation{}.Pack(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        CreditTree(r.tree, r.free, /*unreserve=*/true);
        break;
      }
    }
  }
}

// ----------------------------------------------------------------------
// Allocation
// ----------------------------------------------------------------------

Result<FrameId> LLFree::Get(unsigned core, unsigned order, AllocType type) {
  if (order > kMaxBitfieldOrder && order != kHugeOrder) {
    HA_COUNT("llfree.get_fail");
    return AllocError::kInvalid;
  }
  FrameId frame = 0;
  bool dry = false;
  if (ClaimRuns(core, order, type, std::span<FrameId>(&frame, 1), &dry) == 1) {
    HA_COUNT("llfree.get");
    HA_HIST("llfree.get_order", order);
    return frame;
  }
  if (dry) {
    return GetFallback(order);
  }
  HA_COUNT("llfree.get_fail");
  return AllocError::kRetry;
}

unsigned LLFree::GetBatch(unsigned core, unsigned order, unsigned count,
                          AllocType type, std::vector<FrameId>* out) {
  unsigned claimed = 0;
  bool dry = false;
  if (count > 0 && (order <= kMaxBitfieldOrder || order == kHugeOrder)) {
    const size_t base = out->size();
    out->resize(base + count);
    claimed = ClaimRuns(core, order, type,
                        std::span<FrameId>(out->data() + base, count), &dry);
    out->resize(base + claimed);
  }
  // The singles tail below counts its own "llfree.get"s.
  if (claimed > 0) {
    HA_COUNT_N("llfree.get", claimed);
    HA_COUNT("llfree.get_batch");
    HA_HIST("llfree.get_batch_runs", claimed);
  }
  // Tail under pressure, with the exact semantics of `count` single
  // Gets. When no tree could be reserved, a single Get's claim loop would
  // only fail the same search again, so the tail goes to the fallback
  // steal directly.
  while (claimed < count) {
    const Result<FrameId> r =
        dry ? GetFallback(order) : Get(core, order, type);
    if (!r.ok()) {
      break;
    }
    out->push_back(*r);
    ++claimed;
  }
  return claimed;
}

unsigned LLFree::ClaimRuns(unsigned core, unsigned order, AllocType type,
                           std::span<FrameId> out, bool* dry) {
  // Order-9 traffic has its own reservation slot in the per-type mode.
  if (order == kHugeOrder &&
      config().mode == Config::ReservationMode::kPerType) {
    type = AllocType::kHuge;
  }
  const unsigned slot = SlotFor(core, type);
  const unsigned run = 1u << order;
  const unsigned count = static_cast<unsigned>(out.size());
  unsigned claimed = 0;
  std::optional<uint64_t> avoid;
  for (unsigned attempt = 0;
       attempt < kMaxReserveAttempts && claimed < count; ++attempt) {
    unsigned taken_runs = 0;
    const std::optional<uint64_t> tree =
        TakeUpToFromReservation(slot, run, count - claimed, &taken_runs);
    if (!tree.has_value()) {
      if (!ReserveNewTree(slot, type, run, avoid)) {
        *dry = true;
        break;
      }
      continue;
    }
    const unsigned got =
        SearchTree(*tree, order, out.subspan(claimed, taken_runs));
    claimed += got;
    if (got < taken_runs) {
      // The counter promised more runs than the tree could deliver
      // (fragmentation or a race): return the shortfall and move on.
      GiveBack(slot, *tree, (taken_runs - got) * run);
      avoid = *tree;
      if (!ReserveNewTree(slot, type, run, avoid)) {
        *dry = true;
        break;
      }
    }
  }
  return claimed;
}

Result<FrameId> LLFree::GetFallback(unsigned order) {
  // Last resort under memory pressure: no unreserved tree has room, but
  // trees reserved by *other* slots (or fragmented ones) may still hold
  // free frames. Steal directly from the global tree counters, ignoring
  // the reserved flag.
  HA_COUNT("llfree.fallback_steal");
  const unsigned need = 1u << order;
  FrameId frame = 0;
  const std::span<FrameId> one(&frame, 1);
  // Trees a failing search found empty are skipped (summary bit clear).
  const uint64_t hit = ScanOccupied(0, 0, [&](uint64_t, uint64_t t) {
    const auto stolen = AtomicUpdate(
        state_->trees_[t], [&](uint32_t raw) -> std::optional<uint32_t> {
          TreeEntry entry = TreeEntry::Unpack(raw);
          if (entry.free < need) {
            return std::nullopt;
          }
          entry.free -= need;
          return entry.Pack();
        });
    if (!stolen.has_value()) {
      return false;
    }
    if (SearchTree(t, order, one) == 1) {
      return true;
    }
    CreditTree(t, need);
    return false;
  });
  if (hit < num_trees()) {
    HA_COUNT("llfree.get");
    HA_HIST("llfree.get_order", order);
    return frame;
  }
  ForgetEmptyTrees();  // the tree loop failed outright
  // The remaining frames may live in other slots' local reservation
  // counters; pull from those directly (the reservations are part of the
  // shared state, so this stays a lock-free CAS transaction).
  for (unsigned s = 0; s < config().NumSlots(); ++s) {
    uint64_t victim_tree = 0;
    const auto taken = AtomicUpdate(
        state_->reservations_[s], [&](uint64_t raw) -> std::optional<uint64_t> {
          Reservation r = Reservation::Unpack(raw);
          if (!r.active || r.free < need) {
            return std::nullopt;
          }
          victim_tree = r.tree;
          r.free = static_cast<uint16_t>(r.free - need);
          return r.Pack();
        });
    if (!taken.has_value()) {
      continue;
    }
    if (SearchTree(victim_tree, order, one) == 1) {
      HA_COUNT("llfree.get");
      HA_HIST("llfree.get_order", order);
      return frame;
    }
    GiveBack(s, victim_tree, need);
  }
  HA_COUNT("llfree.get_fail");
  return AllocError::kNoMemory;
}

unsigned LLFree::SearchTree(uint64_t tree, unsigned order,
                            std::span<FrameId> out) {
  const uint64_t first = FirstAreaOf(tree);
  const uint64_t areas = AreasInTree(tree);
  const unsigned run = 1u << order;
  unsigned claimed = 0;
  // Pass 0 skips evicted areas, so frames still backed by host memory go
  // first; pass 1 takes any area (an evicted one triggers an install).
  for (int pass = 0; pass < 2 && claimed < out.size(); ++pass) {
    for (uint64_t i = 0; i < areas && claimed < out.size(); ++i) {
      const uint64_t area = first + i;
      const AreaEntry entry = AreaEntry::Unpack(
          state_->areas_[area].load(std::memory_order_acquire));
      if (entry.allocated || entry.free < run ||
          (pass == 0 && entry.evicted)) {
        continue;
      }
      claimed += ClaimInArea(area, order, out.subspan(claimed));
    }
  }
  return claimed;
}

unsigned LLFree::ClaimInArea(uint64_t area, unsigned order,
                             std::span<FrameId> out) {
  const unsigned run = 1u << order;
  bool was_evicted = false;
  unsigned want = 0;
  const auto taken = AtomicUpdate(
      state_->areas_[area], [&](uint16_t raw) -> std::optional<uint16_t> {
        AreaEntry entry = AreaEntry::Unpack(raw);
        if (entry.allocated || entry.free < run) {
          return std::nullopt;
        }
        was_evicted = entry.evicted;
        want = std::min<unsigned>(static_cast<unsigned>(out.size()),
                                  entry.free / run);
        entry.free = static_cast<uint16_t>(entry.free - want * run);
        // An order-9 claim takes the whole area through its allocated
        // flag and never touches the bit field.
        entry.allocated = order == kHugeOrder;
        return entry.Pack();
      });
  if (!taken.has_value()) {
    return 0;
  }
  unsigned got = want;
  if (order == kHugeOrder) {
    out[0] = HugeToFrame(area);
  } else {
    unsigned offsets[kFramesPerHuge];
    got = BitsOf(area).Set(order, want, offsets);
    if (got < want) {
      // Counter promised more runs than the bit field held (transient
      // race with concurrent claims): roll the shortfall back.
      AtomicUpdate(state_->areas_[area],
                   [&](uint16_t raw) -> std::optional<uint16_t> {
                     AreaEntry entry = AreaEntry::Unpack(raw);
                     entry.free = static_cast<uint16_t>(entry.free +
                                                        (want - got) * run);
                     return entry.Pack();
                   });
    }
    for (unsigned i = 0; i < got; ++i) {
      out[i] = HugeToFrame(area) + offsets[i];
    }
  }
  if (got > 0 && was_evicted) {
    // DMA safety: wait for the hypervisor to install backing memory
    // before handing the frames to the caller (§3.2), once per area
    // rather than once per frame.
    TriggerInstall(area);
  }
  return got;
}

void LLFree::TriggerInstall(HugeId huge) {
  HA_COUNT("llfree.install_trigger");
  const InstallHandler& handler = install_handler_.read();
  if (handler) {
    handler(huge);
  } else {
    // Standalone operation (no hypervisor attached): the hint is cleared
    // locally so the allocator remains self-consistent.
    ClearEvicted(huge);
  }
}

std::optional<AllocError> LLFree::Put(FrameId frame, unsigned order) {
  if (order > kMaxBitfieldOrder && order != kHugeOrder) {
    return AllocError::kInvalid;
  }
  if (frame >= frames() || frame % (1ull << order) != 0) {
    return AllocError::kInvalid;
  }
  const uint64_t area = FrameToHuge(frame);
  const unsigned need = 1u << order;

  if (order == kHugeOrder) {
    const auto freed = AtomicUpdate(
        state_->areas_[area], [&](uint16_t raw) -> std::optional<uint16_t> {
          AreaEntry entry = AreaEntry::Unpack(raw);
          if (!entry.allocated || entry.free != 0) {
            return std::nullopt;  // not huge-allocated: invalid free
          }
          entry.allocated = false;
          entry.free = kFramesPerHuge;
          return entry.Pack();
        });
    if (!freed.has_value()) {
      return AllocError::kInvalid;
    }
  } else {
    if (!BitsOf(area).Clear(static_cast<unsigned>(frame % kFramesPerHuge),
                            order)) {
      return AllocError::kInvalid;
    }
    AtomicUpdate(state_->areas_[area],
                 [&](uint16_t raw) -> std::optional<uint16_t> {
                   AreaEntry entry = AreaEntry::Unpack(raw);
                   HA_DCHECK(!entry.allocated);
                   HA_DCHECK(entry.free + need <= kFramesPerHuge);
                   entry.free = static_cast<uint16_t>(entry.free + need);
                   return entry.Pack();
                 });
  }

  CreditTree(TreeOf(area), need);
  HA_COUNT("llfree.put");
  return std::nullopt;
}

unsigned LLFree::PutBatch(std::span<const FrameId> frames, unsigned order) {
  if (frames.empty()) {
    return 0;
  }
  if (order > kMaxSingleWordOrder) {
    unsigned freed = 0;
    for (const FrameId f : frames) {
      if (!Put(f, order).has_value()) {
        ++freed;
      }
    }
    return freed;
  }
  const unsigned run = 1u << order;
  const uint64_t mask = (order == 6) ? ~0ull : ((1ull << run) - 1);

  // Sort a local copy so runs sharing one bit-field word are adjacent and
  // the whole group clears with a single CAS + one counter credit each.
  std::vector<FrameId> sorted;
  sorted.reserve(frames.size());
  for (const FrameId f : frames) {
    if (f >= this->frames() || f % run != 0) {
      continue;  // kInvalid: skipped, rest of the batch still frees
    }
    sorted.push_back(f);
  }
  std::sort(sorted.begin(), sorted.end());

  unsigned freed_total = 0;
  unsigned freed_batched = 0;  // one-CAS groups only (Put counts its own)
  size_t i = 0;
  while (i < sorted.size()) {
    const uint64_t area = FrameToHuge(sorted[i]);
    const unsigned word = (sorted[i] % kFramesPerHuge) / 64;
    uint64_t word_mask = 0;
    bool overlap = false;
    size_t end = i;
    while (end < sorted.size() && FrameToHuge(sorted[end]) == area &&
           (sorted[end] % kFramesPerHuge) / 64 == word) {
      const uint64_t m = mask << (sorted[end] % 64);
      overlap = overlap || (word_mask & m) != 0;  // duplicate in batch
      word_mask |= m;
      ++end;
    }
    const unsigned group_runs = static_cast<unsigned>(end - i);
    if (!overlap && BitsOf(area).ClearMask(word, word_mask)) {
      // One credit per group, same order as Put: bits, area, then tree.
      AtomicUpdate(state_->areas_[area],
                   [&](uint16_t raw) -> std::optional<uint16_t> {
                     AreaEntry entry = AreaEntry::Unpack(raw);
                     HA_DCHECK(!entry.allocated);
                     HA_DCHECK(entry.free + group_runs * run <=
                               kFramesPerHuge);
                     entry.free = static_cast<uint16_t>(entry.free +
                                                        group_runs * run);
                     return entry.Pack();
                   });
      CreditTree(TreeOf(area), group_runs * run);
      freed_total += group_runs;
      freed_batched += group_runs;
    } else {
      // A duplicate or double free hides somewhere in the group: fall
      // back to per-run Put so the valid subset still frees.
      for (size_t j = i; j < end; ++j) {
        if (!Put(sorted[j], order).has_value()) {
          ++freed_total;
        }
      }
    }
    i = end;
  }
  if (freed_batched > 0) {
    HA_COUNT_N("llfree.put", freed_batched);
    HA_COUNT("llfree.put_batch");
  }
  return freed_total;
}

// ----------------------------------------------------------------------
// Compaction support (DESIGN.md §4.14)
// ----------------------------------------------------------------------

unsigned LLFree::ClaimFreeInArea(HugeId area, std::vector<FrameId>* out) {
  HA_CHECK(area < num_areas());
  const uint64_t tree = TreeOf(area);
  unsigned total = 0;
  for (;;) {
    const AreaEntry snapshot = AreaEntry::Unpack(
        state_->areas_[area].load(std::memory_order_acquire));
    if (snapshot.allocated || snapshot.free == 0) {
      break;
    }
    // Debit the tree counter FIRST — the hard-reclaim ordering — so the
    // guest cannot promise these frames to an allocation mid-claim. The
    // frames may be parked in a reservation over this tree; raid those
    // when the global counter runs dry.
    unsigned take = 0;
    const bool counter_taken =
        AtomicUpdate(state_->trees_[tree],
                     [&](uint32_t raw) -> std::optional<uint32_t> {
                       TreeEntry te = TreeEntry::Unpack(raw);
                       if (te.free == 0) {
                         return std::nullopt;
                       }
                       take = std::min<unsigned>(snapshot.free, te.free);
                       te.free -= take;
                       return te.Pack();
                     })
            .has_value();
    if (!counter_taken) {
      take = 0;
      for (unsigned s = 0; s < config().NumSlots() && take == 0; ++s) {
        const bool raided =
            AtomicUpdate(state_->reservations_[s],
                         [&](uint64_t raw) -> std::optional<uint64_t> {
                           Reservation r = Reservation::Unpack(raw);
                           if (!r.active || r.tree != tree || r.free == 0) {
                             return std::nullopt;
                           }
                           take = std::min<unsigned>(snapshot.free, r.free);
                           r.free = static_cast<uint16_t>(r.free - take);
                           return r.Pack();
                         })
                .has_value();
        if (!raided) {
          take = 0;
        }
      }
      if (take == 0) {
        break;  // tree counters dry: nothing safely claimable
      }
    }
    // Debit the area counter (it may have shrunk since the snapshot;
    // credit any shortfall back to the tree).
    unsigned got = 0;
    const bool area_taken =
        AtomicUpdate(state_->areas_[area],
                     [&](uint16_t raw) -> std::optional<uint16_t> {
                       AreaEntry entry = AreaEntry::Unpack(raw);
                       if (entry.allocated || entry.free == 0) {
                         return std::nullopt;
                       }
                       got = std::min<unsigned>(take, entry.free);
                       entry.free = static_cast<uint16_t>(entry.free - got);
                       return entry.Pack();
                     })
            .has_value();
    if (!area_taken) {
      got = 0;
    }
    if (got < take) {
      CreditTree(tree, take - got);
      if (got == 0) {
        break;
      }
    }
    // Claim the corresponding order-0 bits. No install trigger: the
    // claimed frames are the holes the migration fills around and are
    // never written through.
    unsigned offsets[kFramesPerHuge];
    const unsigned set = BitsOf(area).Set(0, got, offsets);
    if (set < got) {
      // Bits raced ahead of the counter: roll the shortfall back.
      AtomicUpdate(state_->areas_[area],
                   [&](uint16_t raw) -> std::optional<uint16_t> {
                     AreaEntry entry = AreaEntry::Unpack(raw);
                     entry.free = static_cast<uint16_t>(entry.free +
                                                        (got - set));
                     return entry.Pack();
                   });
      CreditTree(tree, got - set);
    }
    for (unsigned i = 0; i < set; ++i) {
      out->push_back(HugeToFrame(area) + offsets[i]);
    }
    total += set;
    if (set == 0) {
      break;
    }
  }
  if (total > 0) {
    HA_COUNT("llfree.compact_claim");
    HA_COUNT_N("llfree.compact_claim_frames", total);
  }
  return total;
}

double LLFree::FragmentationScore() const {
  const uint64_t free = FreeFrames();
  if (free == 0) {
    return 0.0;
  }
  const uint64_t huge_free = FreeHugeFrames() * kFramesPerHuge;
  HA_DCHECK(huge_free <= free);
  return 1.0 - static_cast<double>(huge_free) / static_cast<double>(free);
}

// ----------------------------------------------------------------------
// Bilateral (hypervisor) operations
// ----------------------------------------------------------------------

std::optional<HugeId> LLFree::ReclaimHuge(HugeId start_hint, bool hard,
                                          bool allow_reserved) {
  const uint64_t n = num_areas();
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t area = (start_hint + i) % n;
    if (hard ? TryHardReclaim(area, allow_reserved) : TrySoftReclaim(area)) {
      return area;
    }
  }
  return std::nullopt;
}

bool LLFree::TrySoftReclaim(HugeId huge) {
  HA_CHECK(huge < num_areas());
  const AreaEntry entry =
      AreaEntry::Unpack(state_->areas_[huge].load(std::memory_order_acquire));
  if (!entry.IsFreeHuge() || entry.evicted) {
    return false;
  }
  // Soft reclaim: only the evicted hint changes; the frame stays
  // logically free for the guest.
  AreaEntry desired = entry;
  desired.evicted = true;
  uint16_t expected = entry.Pack();
  if (!state_->areas_[huge].compare_exchange_strong(
          expected, desired.Pack(), std::memory_order_acq_rel,
          std::memory_order_acquire)) {
    return false;
  }
  HA_COUNT("llfree.reclaim_soft");
  return true;
}

bool LLFree::TryHardReclaim(HugeId huge, bool allow_reserved) {
  HA_CHECK(huge < num_areas());
  const AreaEntry entry =
      AreaEntry::Unpack(state_->areas_[huge].load(std::memory_order_acquire));
  // Unlike soft reclaim, hard reclaim also takes soft-reclaimed (evicted)
  // frames: the S -> H transition of Fig. 2 — the paper's fast
  // "reclaim untouched" path, since no unmapping is needed.
  if (!entry.IsFreeHuge()) {
    return false;
  }
  const uint64_t tree = TreeOf(huge);

  // Hard reclaim: first take the frames out of the tree counter so the
  // guest cannot promise them to an allocation, then claim the area.
  bool counter_taken =
      AtomicUpdate(state_->trees_[tree],
                   [&](uint32_t raw) -> std::optional<uint32_t> {
                     TreeEntry te = TreeEntry::Unpack(raw);
                     if ((te.reserved && !allow_reserved) ||
                         te.free < kFramesPerHuge) {
                       return std::nullopt;
                     }
                     te.free -= kFramesPerHuge;
                     return te.Pack();
                   })
          .has_value();
  if (!counter_taken && allow_reserved) {
    // The frames may be parked in a guest reservation's local counter
    // (the shared state includes the reservations, so the monitor can
    // pull from them directly — this is the memory pressure the paper's
    // "cache purge" induces).
    for (unsigned s = 0; s < config().NumSlots() && !counter_taken; ++s) {
      counter_taken =
          AtomicUpdate(state_->reservations_[s],
                       [&](uint64_t raw) -> std::optional<uint64_t> {
                         Reservation r = Reservation::Unpack(raw);
                         if (!r.active || r.tree != tree ||
                             r.free < kFramesPerHuge) {
                           return std::nullopt;
                         }
                         r.free = static_cast<uint16_t>(r.free -
                                                        kFramesPerHuge);
                         return r.Pack();
                       })
              .has_value();
    }
  }
  if (!counter_taken) {
    return false;
  }
  AreaEntry desired = entry;
  desired.free = 0;
  desired.allocated = true;  // A <- 1
  desired.evicted = true;    // E <- 1
  uint16_t expected = entry.Pack();
  if (state_->areas_[huge].compare_exchange_strong(
          expected, desired.Pack(), std::memory_order_acq_rel,
          std::memory_order_acquire)) {
    HA_COUNT("llfree.reclaim_hard");
    return true;
  }
  // Lost the race for this area (guest allocated it); undo the steal.
  CreditTree(tree, kFramesPerHuge);
  return false;
}

bool LLFree::MarkReturned(HugeId huge) {
  HA_CHECK(huge < num_areas());
  const bool transitioned =
      AtomicUpdate(state_->areas_[huge],
                   [](uint16_t raw) -> std::optional<uint16_t> {
                     AreaEntry entry = AreaEntry::Unpack(raw);
                     // Only the hard-reclaimed state (A=1, E=1, free=0)
                     // may be returned; hint bits (hotness) are kept.
                     if (!entry.allocated || !entry.evicted ||
                         entry.free != 0) {
                       return std::nullopt;
                     }
                     entry.free = kFramesPerHuge;
                     entry.allocated = false;
                     return entry.Pack();
                   })
          .has_value();
  if (!transitioned) {
    return false;
  }
  CreditTree(TreeOf(huge), kFramesPerHuge);
  HA_COUNT("llfree.return");
  return true;
}

bool LLFree::ClearEvicted(HugeId huge) {
  HA_CHECK(huge < num_areas());
  const bool cleared =
      AtomicUpdate(state_->areas_[huge],
                   [](uint16_t raw) -> std::optional<uint16_t> {
                     AreaEntry entry = AreaEntry::Unpack(raw);
                     if (!entry.evicted) {
                       return std::nullopt;
                     }
                     entry.evicted = false;
                     return entry.Pack();
                   })
          .has_value();
  if (cleared) {
    HA_COUNT("llfree.evicted_clear");
  }
  return cleared;
}

bool LLFree::SetEvicted(HugeId huge) {
  HA_CHECK(huge < num_areas());
  const bool set =
      AtomicUpdate(state_->areas_[huge],
                   [](uint16_t raw) -> std::optional<uint16_t> {
                     AreaEntry entry = AreaEntry::Unpack(raw);
                     if (entry.evicted) {
                       return std::nullopt;
                     }
                     entry.evicted = true;
                     return entry.Pack();
                   })
          .has_value();
  if (set) {
    HA_COUNT("llfree.evicted_set");
  }
  return set;
}

void LLFree::MarkHot(HugeId huge) {
  HA_CHECK(huge < num_areas());
  AtomicUpdate(state_->areas_[huge],
               [](uint16_t raw) -> std::optional<uint16_t> {
                 AreaEntry entry = AreaEntry::Unpack(raw);
                 if (entry.hotness == AreaEntry::kMaxHotness) {
                   return std::nullopt;  // already hot: no write traffic
                 }
                 entry.hotness = AreaEntry::kMaxHotness;
                 return entry.Pack();
               });
}

uint8_t LLFree::AgeHotness(HugeId huge) {
  HA_CHECK(huge < num_areas());
  uint8_t before = 0;
  AtomicUpdate(state_->areas_[huge],
               [&before](uint16_t raw) -> std::optional<uint16_t> {
                 AreaEntry entry = AreaEntry::Unpack(raw);
                 before = entry.hotness;
                 if (entry.hotness == 0) {
                   return std::nullopt;
                 }
                 --entry.hotness;
                 return entry.Pack();
               });
  return before;
}

// ----------------------------------------------------------------------
// Introspection
// ----------------------------------------------------------------------

AreaEntry LLFree::ReadArea(HugeId huge) const {
  HA_CHECK(huge < num_areas());
  return AreaEntry::Unpack(state_->areas_[huge].load(std::memory_order_acquire));
}

TreeEntry LLFree::ReadTree(uint64_t tree) const {
  HA_CHECK(tree < num_trees());
  return TreeEntry::Unpack(state_->trees_[tree].load(std::memory_order_acquire));
}

Reservation LLFree::ReadReservation(unsigned slot) const {
  HA_CHECK(slot < config().NumSlots());
  return Reservation::Unpack(
      state_->reservations_[slot].load(std::memory_order_acquire));
}

uint64_t LLFree::FreeFrames() const {
  uint64_t total = 0;
  for (uint64_t a = 0; a < num_areas(); ++a) {
    total += ReadArea(a).free;
  }
  return total;
}

uint64_t LLFree::FreeHugeFrames(bool include_evicted) const {
  uint64_t total = 0;
  for (uint64_t a = 0; a < num_areas(); ++a) {
    const AreaEntry entry = ReadArea(a);
    if (entry.IsFreeHuge() && (include_evicted || !entry.evicted)) {
      ++total;
    }
  }
  return total;
}

uint64_t LLFree::UsedHugeAreas() const {
  uint64_t total = 0;
  for (uint64_t a = 0; a < num_areas(); ++a) {
    const AreaEntry entry = ReadArea(a);
    const bool guest_used =
        (!entry.allocated && entry.free < kFramesPerHuge) ||
        (entry.allocated && !entry.evicted);
    if (guest_used) {
      ++total;
    }
  }
  return total;
}

uint64_t LLFree::EvictedAreas() const {
  uint64_t total = 0;
  for (uint64_t a = 0; a < num_areas(); ++a) {
    if (ReadArea(a).evicted) {
      ++total;
    }
  }
  return total;
}

uint64_t LLFree::Recover() {
  uint64_t repaired = 0;

  // Area counters from the authoritative bit field (the allocated flag is
  // itself authoritative: a huge allocation never sets bits).
  for (uint64_t a = 0; a < num_areas(); ++a) {
    const AreaEntry entry = ReadArea(a);
    AreaEntry repaired_entry = entry;
    repaired_entry.free =
        entry.allocated
            ? 0
            : static_cast<uint16_t>(kFramesPerHuge - BitsOf(a).CountSet());
    if (!(repaired_entry == entry)) {
      state_->areas_[a].store(repaired_entry.Pack(),
                              std::memory_order_release);
      ++repaired;
    }
  }

  // Drop all reservations (their owners are gone after a crash).
  for (unsigned s = 0; s < config().NumSlots(); ++s) {
    if (ReadReservation(s).active) {
      state_->reservations_[s].store(Reservation{}.Pack(),
                                     std::memory_order_release);
      ++repaired;
    }
  }

  // Tree counters from the (now-correct) area counters.
  for (uint64_t t = 0; t < num_trees(); ++t) {
    uint64_t free = 0;
    for (uint64_t a = FirstAreaOf(t); a < FirstAreaOf(t) + AreasInTree(t);
         ++a) {
      free += ReadArea(a).free;
    }
    const TreeEntry entry = ReadTree(t);
    TreeEntry repaired_entry = entry;
    repaired_entry.free = static_cast<uint32_t>(free);
    repaired_entry.reserved = false;
    if (!(repaired_entry == entry)) {
      state_->trees_[t].store(repaired_entry.Pack(),
                              std::memory_order_release);
      ++repaired;
    }
  }
  // The repaired counters may hold frames behind clear summary bits.
  state_->MarkEveryTreeOccupied();
  return repaired;
}

bool LLFree::Validate() const {
  bool ok = true;
  auto fail = [&ok](const char* what, uint64_t index, uint64_t a, uint64_t b) {
    std::fprintf(stderr, "llfree validate: %s at %llu: %llu vs %llu\n", what,
                 static_cast<unsigned long long>(index),
                 static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(b));
    ok = false;
  };

  for (uint64_t a = 0; a < num_areas(); ++a) {
    const AreaEntry entry = ReadArea(a);
    const unsigned set_bits = BitsOf(a).CountSet();
    if (entry.allocated) {
      if (entry.free != 0) {
        fail("huge-allocated area with free != 0", a, entry.free, 0);
      }
      if (set_bits != 0) {
        fail("huge-allocated area with set bits", a, set_bits, 0);
      }
    } else {
      if (entry.free + set_bits != kFramesPerHuge) {
        fail("counter/bitfield mismatch", a, entry.free + set_bits,
             kFramesPerHuge);
      }
    }
  }

  // Tree counters + reservations must cover the area counters, except for
  // hard-reclaimed frames whose 512 were deliberately removed.
  std::vector<uint64_t> reserved_extra(num_trees(), 0);
  for (unsigned s = 0; s < config().NumSlots(); ++s) {
    const Reservation r = ReadReservation(s);
    if (r.active) {
      reserved_extra[r.tree] += r.free;
    }
  }
  for (uint64_t t = 0; t < num_trees(); ++t) {
    uint64_t area_free = 0;
    for (uint64_t a = FirstAreaOf(t); a < FirstAreaOf(t) + AreasInTree(t);
         ++a) {
      area_free += ReadArea(a).free;
    }
    const TreeEntry entry = ReadTree(t);
    const uint64_t counted = entry.free + reserved_extra[t];
    // Hard-reclaimed areas contribute neither to area_free nor to the
    // tree counter, so both sides agree without adjustment.
    if (counted != area_free) {
      fail("tree counter mismatch", t, counted, area_free);
    }
    // A tree with frames on its counter must not be skipped by searches.
    const uint64_t word = state_->tree_summary_[t / 64].load(
        std::memory_order_acquire);
    if (entry.free != 0 && (word >> (t % 64) & 1) == 0) {
      fail("summary bit clear on a non-empty tree", t, entry.free, 0);
    }
  }
  return ok;
}

}  // namespace hyperalloc::llfree

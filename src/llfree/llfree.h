// LLFree — a lock-free, pointer-free page-frame allocator (Wrenger et al.,
// USENIX ATC '23), extended with HyperAlloc's bilateral operations
// (paper §3–4): evicted hints, per-type tree reservations, and host-side
// reclaim / return / install transitions.
//
// The allocator state (bit field, area index, tree index) lives in a
// SharedState object that contains only densely packed atomic arrays —
// no pointers — so that a hypervisor view (a second LLFree object over the
// same SharedState) can locate and modify any entry via offset arithmetic,
// exactly as the QEMU monitor maps the guest's allocator state in the
// paper ("Locating the Allocator State", §4.2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/base/atomic.h"
#include "src/base/result.h"
#include "src/base/shared.h"
#include "src/base/types.h"
#include "src/llfree/bitfield.h"
#include "src/llfree/entries.h"

namespace hyperalloc::llfree {

struct Config {
  enum class ReservationMode {
    kPerCore,  // original LLFree: one reserved tree per core
    kPerType,  // HyperAlloc variant (§4.2): one global reservation per
               // allocation type (unmovable / movable / huge)
  };

  ReservationMode mode = ReservationMode::kPerType;
  // Number of reservation slots in per-core mode.
  unsigned cores = 1;
  // Areas per tree: 8 (16 MiB) for the HyperAlloc variant, 32 (64 MiB)
  // for the original LLFree. At most 127, so that a tree's free count
  // fits the 16-bit tree and reservation counters.
  unsigned areas_per_tree = 8;

  unsigned NumSlots() const {
    return mode == ReservationMode::kPerCore ? cores : kNumAllocTypes;
  }
};

// The shareable allocator state. In the real system this is guest memory
// communicated to QEMU via virtio at boot; here it is a heap object that
// both the guest-side and the monitor-side LLFree views reference.
class SharedState {
 public:
  // `frames` must be a multiple of 512 (whole huge frames).
  SharedState(uint64_t frames, const Config& config);

  SharedState(const SharedState&) = delete;
  SharedState& operator=(const SharedState&) = delete;

  uint64_t frames() const { return frames_; }
  uint64_t num_areas() const { return num_areas_; }
  uint64_t num_trees() const { return num_trees_; }
  const Config& config() const { return config_.read(); }

  // Raw state arrays. The auto-reclamation scan (src/core) reads the area
  // array directly to count touched cache lines (paper §3.3); the
  // invariant oracle (src/check) uses the const views.
  Atomic<uint16_t>* areas() { return areas_.get(); }
  Atomic<uint32_t>* trees() { return trees_.get(); }
  Atomic<uint64_t>* bitfield() { return bitfield_.get(); }
  Atomic<uint64_t>* reservations() { return reservations_.get(); }
  const Atomic<uint16_t>* areas() const { return areas_.get(); }
  const Atomic<uint32_t>* trees() const { return trees_.get(); }
  const Atomic<uint64_t>* bitfield() const { return bitfield_.get(); }
  const Atomic<uint64_t>* reservations() const { return reservations_.get(); }
  // Per-slot tree search hints. Values may legitimately exceed num_trees()
  // when a view over a *larger* previous state wrote them (tree-count
  // shrink); every reader clamps with % num_trees() and every store
  // re-clamps, so stale hints only bias the search start.
  Atomic<uint64_t>* tree_hints() { return tree_hints_.get(); }
  // Tree-occupancy summary (DESIGN.md §4.1): one bit per tree, 64 trees
  // per word. A clear bit means the tree's counter was 0 when a failing
  // search cleared it, and every credit to that tree since has set it
  // again, so searches skip clear bits. A set bit promises nothing. A
  // raw store that makes a tree counter non-zero must set its bit too.
  Atomic<uint64_t>* tree_summary() { return tree_summary_.get(); }
  const Atomic<uint64_t>* tree_summary() const { return tree_summary_.get(); }
  uint64_t summary_words() const { return (num_trees_ + 63) / 64; }
  // Sets every tree's summary bit, so the next search visits every tree.
  // Safe at any time, since a set bit promises nothing.
  void MarkEveryTreeOccupied();

  // Size in bytes of the hypervisor-shared portion (bit field + indexes),
  // for the scan-cost analysis.
  uint64_t SharedBytes() const;

 private:
  friend class LLFree;

  uint64_t frames_;
  uint64_t num_areas_;
  uint64_t num_trees_;
  // Written once at construction, read by every view from every thread:
  // the immutable-after-publication discipline the model checker
  // verifies (setup writes happen-before all model threads).
  Shared<Config> config_;

  std::unique_ptr<Atomic<uint64_t>[]> bitfield_;
  std::unique_ptr<Atomic<uint16_t>[]> areas_;
  std::unique_ptr<Atomic<uint32_t>[]> trees_;
  std::unique_ptr<Atomic<uint64_t>[]> reservations_;
  // Per-slot search hints (not part of the shared protocol state).
  std::unique_ptr<Atomic<uint64_t>[]> tree_hints_;
  // Search acceleration, not part of SharedBytes(): the scan-cost
  // analysis counts the paper's layout only.
  std::unique_ptr<Atomic<uint64_t>[]> tree_summary_;
};

// A view over a SharedState. Guest and monitor each construct their own
// LLFree over the same state; all operations are lock-free atomic
// transactions on the shared arrays.
class LLFree {
 public:
  // Invoked when the guest allocates frames inside an evicted huge frame.
  // The handler must make the frame host-backed and is expected to clear
  // the evicted hint (monitor install path, §3.2 "Return and Install").
  // The allocation blocks until the handler returns (DMA safety).
  using InstallHandler = std::function<void(HugeId)>;

  explicit LLFree(SharedState* state);

  LLFree(const LLFree&) = delete;
  LLFree& operator=(const LLFree&) = delete;

  const SharedState& state() const { return *state_; }
  const Config& config() const { return state_->config(); }
  uint64_t frames() const { return state_->frames(); }
  uint64_t num_areas() const { return state_->num_areas(); }
  uint64_t num_trees() const { return state_->num_trees(); }

  void SetInstallHandler(InstallHandler handler) {
    install_handler_.write() = std::move(handler);
  }

  // ------------------------------------------------------------------
  // Guest-side API
  // ------------------------------------------------------------------

  // Allocates 2^order naturally aligned base frames. Supported orders:
  // 0..6 (single bit-field word), 7..8 (whole-word runs), and 9 (huge
  // frame via the area entry's allocated flag). Returns the first frame
  // of the run.
  Result<FrameId> Get(unsigned core, unsigned order, AllocType type);

  // Frees a previous allocation. Returns kInvalid on double free or
  // out-of-range frames.
  std::optional<AllocError> Put(FrameId frame, unsigned order);

  // Batched allocation (DESIGN.md §4.10): claims up to `count` runs of
  // 2^order frames for `core`, appending the first frame of each run to
  // `out`. Get and GetBatch share one claim loop for every order 0..9:
  // one CAS on the slot's reservation takes the whole batch's worth of
  // frames, and each area visit claims every run it can — one CAS per
  // bit-field word for orders 0..6, one multi-word run per iteration for
  // 7..8, the area's allocated flag for 9 — so a 64-frame order-0 batch
  // costs a handful of atomics instead of 64 full Get transactions.
  // Returns the number of runs claimed; fewer than `count` means the
  // allocator ran dry. Runs the loop could not claim go to the pressure
  // fallback directly when no tree could be reserved, and through single
  // Gets otherwise, so a batch is exactly equivalent to `count` single
  // Gets.
  unsigned GetBatch(unsigned core, unsigned order, unsigned count,
                    AllocType type, std::vector<FrameId>* out);

  // Batched free of uniform-order runs: frames sharing a bit-field word
  // are cleared with a single CAS and credited to the area and tree
  // counters once per group. Invalid or double-freed entries are skipped
  // (the rest of the batch still frees; a group whose one-CAS clear
  // fails falls back to per-run Put to isolate the bad entry). Returns
  // the number of runs actually freed.
  unsigned PutBatch(std::span<const FrameId> frames, unsigned order);

  // Returns reserved (cached) frames to the global tree counters —
  // the guest's reaction to the hypervisor's "cache purge" request when
  // shrinking the hard limit (§3.3).
  void DrainReservations();

  // Compaction isolation (DESIGN.md §4.14): claims every currently free
  // base frame of one area into the caller's ownership, appending each
  // frame to `out`. Debits the tree counter (raiding reservations parked
  // over the tree, like hard reclaim) BEFORE touching the area, so a
  // concurrent guest allocation can never be promised these frames.
  // The claimed frames are never written by the caller (they are the
  // holes the straggler migration fills around), so no install triggers.
  // Returns the number of frames claimed; with no concurrent mutators a
  // single call empties the area's free space.
  unsigned ClaimFreeInArea(HugeId area, std::vector<FrameId>* out);

  // Fragmentation score (§4.14): the fraction of free memory NOT
  // recoverable as whole huge frames, in [0, 1]. 0 = every free frame
  // sits in a fully free area (perfectly defragmented); 1 = free memory
  // exists but no area is whole. The compaction daemon triggers on this.
  double FragmentationScore() const;

  // ------------------------------------------------------------------
  // Bilateral (hypervisor-side) API — §3.2 state transitions
  // ------------------------------------------------------------------

  // Finds the next fully free, non-evicted huge frame at or after
  // `start_hint` (wrapping) and atomically transitions it:
  //   hard:  (A<-1, E<-1)  frame removed from the guest's usable memory
  //   soft:  (A=0,  E<-1)  frame stays allocatable but needs install
  // Skips areas whose tree is currently reserved by the guest, unless
  // `allow_reserved`. Returns the reclaimed huge frame.
  std::optional<HugeId> ReclaimHuge(HugeId start_hint, bool hard,
                                    bool allow_reserved = false);

  // Targeted variants for the monitor's own scan loops. Both require the
  // area to currently be a free, non-evicted huge frame; they return
  // false (changing nothing) otherwise.
  bool TrySoftReclaim(HugeId huge);
  bool TryHardReclaim(HugeId huge, bool allow_reserved = false);

  // Hard-reclaimed -> soft-reclaimed (host "return" operation): clears A,
  // keeps E, and re-credits the tree counter.
  bool MarkReturned(HugeId huge);

  // Clears the evicted hint after the host installed backing memory.
  bool ClearEvicted(HugeId huge);

  // Sets the evicted hint (soft reclaim of an already-free frame whose
  // area entry the caller has already validated; also used in tests).
  bool SetEvicted(HugeId huge);

  // ------------------------------------------------------------------
  // Hotness hints (§6) — guest-side access marking and host-side aging
  // ------------------------------------------------------------------

  // Guest: marks the huge frame as recently accessed (H <- max).
  void MarkHot(HugeId huge);
  // Host: decays one hotness level (a periodic aging pass). Returns the
  // hotness *before* aging.
  uint8_t AgeHotness(HugeId huge);
  uint8_t HotnessOf(HugeId huge) const { return ReadArea(huge).hotness; }

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  AreaEntry ReadArea(HugeId huge) const;
  TreeEntry ReadTree(uint64_t tree) const;
  Reservation ReadReservation(unsigned slot) const;

  // Exact counts (iterate the area index).
  uint64_t FreeFrames() const;
  uint64_t AllocatedFrames() const { return frames() - FreeFrames(); }
  // Fully free huge frames; `include_evicted` selects whether evicted
  // (soft-reclaimed) ones count.
  uint64_t FreeHugeFrames(bool include_evicted = true) const;
  // Areas that are (partially) used — the "huge" curve of Fig. 8.
  uint64_t UsedHugeAreas() const;
  uint64_t EvictedAreas() const;

  // Frames per tree (the last tree may be shorter).
  uint64_t TreeCapacity(uint64_t tree) const;

  // Validates cross-level counter/bit-field consistency. Only meaningful
  // at quiescence (no concurrent operations). Returns false and prints
  // the first violation to stderr if inconsistent.
  bool Validate() const;

  // Crash recovery (LLFree is designed to be optionally persistent): the
  // bit field and the huge-allocated flags are the authoritative state;
  // free counters and tree entries are caches that this rebuilds after a
  // crash or corruption. Reservations are cleared, reserved flags
  // dropped, evicted hints and tree types preserved. Returns the number
  // of repaired index entries. Quiescent use only.
  uint64_t Recover();

 private:
  static constexpr unsigned kMaxReserveAttempts = 16;

  unsigned SlotFor(unsigned core, AllocType type) const;
  AreaBits BitsOf(uint64_t area) const;
  uint64_t TreeOf(uint64_t area) const {
    return area / config().areas_per_tree;
  }
  uint64_t FirstAreaOf(uint64_t tree) const {
    return tree * config().areas_per_tree;
  }
  uint64_t AreasInTree(uint64_t tree) const;

  // Takes between 1 and `max_runs` runs of `run` frames from the slot's
  // local counter (as many as it covers), writing the count taken to
  // `*taken_runs`; re-steals from the reserved tree's global counter when
  // the local counter runs dry. Returns the reserved tree index on
  // success.
  std::optional<uint64_t> TakeUpToFromReservation(unsigned slot, unsigned run,
                                                  unsigned max_runs,
                                                  unsigned* taken_runs);

  // The dry-counter resync of the take: moves the reserved tree's
  // global free count into the slot's reservation, whose packed value the
  // caller loaded as `raw`. False when that counter is empty too; true
  // when the caller should retry its take.
  bool ReStealIntoReservation(unsigned slot, uint64_t raw);

  // Returns `need` frames: to the slot's reservation if it still points
  // at `tree`, otherwise to the tree's global counter.
  void GiveBack(unsigned slot, uint64_t tree, unsigned need);

  // Adds `frames` to `tree`'s global counter (and drops its reserved flag
  // when `unreserve`). Every credit to a tree counter goes through here:
  // a credit from 0 sets the tree's summary bit if a failing search
  // cleared it.
  void CreditTree(uint64_t tree, uint32_t frames, bool unreserve = false);

  // Calls `visit(i, t)` for each offset i in [from, n) whose tree
  // t = (hint + i) mod n has its summary bit set, in order, until `visit`
  // returns true. Returns that offset, or n. Each summary word is loaded
  // once per scan.
  template <typename Visit>
  uint64_t ScanOccupied(uint64_t hint, uint64_t from, Visit&& visit) const;

  // After a search failed outright: clears the summary bit of every tree
  // whose counter reads 0, then re-loads those trees and sets the bit
  // again for any that gained frames meanwhile.
  void ForgetEmptyTrees();

  // Reserves a new tree for `slot` (preference order per §4.1/§4.2) and
  // moves its free counter into the local reservation, pre-charging
  // `need` frames. `avoid` is a tree to skip (just searched, failed).
  bool ReserveNewTree(unsigned slot, AllocType type, unsigned need,
                      std::optional<uint64_t> avoid);

  // The one allocation path behind Get and GetBatch: claims up to
  // `out.size()` runs of 2^order frames (orders 0..9) for `core`, writing
  // the first frame of each run to `out`. Each attempt takes runs from
  // the slot's reservation (reserving a new tree when it is dry),
  // searches the tree and gives any shortfall back. Returns the number of
  // runs claimed; sets `*dry` when it stopped because no tree could be
  // reserved (the cue for the pressure fallback).
  unsigned ClaimRuns(unsigned core, unsigned order, AllocType type,
                     std::span<FrameId> out, bool* dry);

  // Claims up to `out.size()` runs of 2^order frames across the areas of
  // `tree`: non-evicted areas first, then evicted ones (triggering
  // install). Returns the number claimed.
  unsigned SearchTree(uint64_t tree, unsigned order, std::span<FrameId> out);

  // Pressure fallback: steals directly from tree counters, ignoring the
  // reserved flag, when no tree can be reserved for the slot.
  Result<FrameId> GetFallback(unsigned order);

  // Area-level claim: one counter transaction reserves up to `out.size()`
  // runs in the area (order 9 takes the whole area through its allocated
  // flag), one word-at-a-time bit-field pass claims them, and a shortfall
  // is rolled back to the counter. Install triggers once per area, not
  // per frame (fault sites at batch granularity). Returns runs claimed.
  unsigned ClaimInArea(uint64_t area, unsigned order, std::span<FrameId> out);

  void TriggerInstall(HugeId huge);

  SharedState* state_;
  // Set at wiring time (before concurrent use), invoked from allocation
  // paths on any thread; Shared<> makes the checker flag a handler swap
  // that races an allocation.
  Shared<InstallHandler> install_handler_;
};

}  // namespace hyperalloc::llfree

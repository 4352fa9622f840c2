// Host physical memory pool — the one data structure every VM on the
// host touches on its hot path. VMs (their EPTs) reserve frames when
// guest-physical memory is populated and release them when the hypervisor
// reclaims it; the multi-VM experiment (Fig. 11) reads aggregate usage.
//
// Admission is one exact counter (multi-VM scaling, DESIGN.md §4.7; one
// simulation thread per VM): TryReserve is a CAS loop on `used` that
// refuses, having changed nothing, exactly when fewer than the requested
// frames are free; Release is one fetch_sub. The pool can therefore never
// overcommit, and it never refuses a reservation that fits, whatever the
// thread interleaving. The host side of the paper (§3.2) needs no more
// than this: each VM's hard limit and the host's free memory.
//
// The peak high-water mark (Fig. 11 "peak memory demand") is maintained
// with a CAS-max loop after each admission.
//
// All state is hyperalloc::Atomic (src/base/atomic.h), so model-check
// builds can explore interleavings of this pool like the LLFree core
// (src/check/invariants.h: CheckHostMemoryStep).
#pragma once

#include <cstdint>

#include "src/base/atomic.h"
#include "src/base/check.h"
#include "src/base/types.h"
#include "src/fault/fault.h"

namespace hyperalloc::hv {

// One consistent view of the pool, in frames. `used + free == total`
// holds by construction; `peak >= used`.
struct MemorySnapshot {
  uint64_t total = 0;
  uint64_t used = 0;
  uint64_t free = 0;
  uint64_t peak = 0;
};

class HostMemory {
 public:
  explicit HostMemory(uint64_t total_frames) : total_(total_frames) {}

  uint64_t total_frames() const { return total_; }
  uint64_t used_frames() const {
    return used_.load(std::memory_order_acquire);
  }
  uint64_t free_frames() const { return total_ - used_frames(); }
  uint64_t used_bytes() const { return used_frames() * kFrameSize; }
  uint64_t peak_frames() const {
    return peak_.load(std::memory_order_acquire);
  }

  // One consistent {total, used, free, peak} read instead of racy
  // multi-getter sampling. `peak` is clamped to >= `used` (the CAS-max
  // update trails the `used` increment by a few instructions).
  MemorySnapshot snapshot() const {
    MemorySnapshot s;
    s.total = total_;
    s.used = used_.load(std::memory_order_acquire);
    s.free = total_ - s.used;
    s.peak = peak_.load(std::memory_order_acquire);
    if (s.peak < s.used) {
      s.peak = s.used;
    }
    return s;
  }

  // Reserves `frames`. Returns false — with nothing changed — iff fewer
  // than `frames` are free at the instant the CAS reads `used`, or an
  // injected kHostReserve fault fires.
  bool TryReserve(uint64_t frames) {
    if (frames == 0) {
      return true;
    }
    if (fault::Poll(fault_, fault::Site::kHostReserve).has_value()) {
      // Injected admission failure: indistinguishable from real
      // exhaustion by design (callers exercise their pressure paths).
      fault_injected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    uint64_t used = used_.load(std::memory_order_acquire);
    do {
      if (total_ - used < frames) {
        return false;
      }
    } while (!used_.compare_exchange_weak(used, used + frames,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire));
    const uint64_t now = used + frames;
    // CAS-max high-water loop: lost races only ever lose to a *larger*
    // observed usage, so the peak is never under-reported.
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (peak < now && !peak_.compare_exchange_weak(
                             peak, now, std::memory_order_acq_rel,
                             std::memory_order_relaxed)) {
    }
    return true;
  }

  void Release(uint64_t frames) {
    if (frames == 0) {
      return;
    }
    const uint64_t before =
        used_.fetch_sub(frames, std::memory_order_acq_rel);
    HA_CHECK(before >= frames);
  }

  // Arms deterministic fault injection on the admission path
  // (fault::Site::kHostReserve): a scheduled fault makes TryReserve
  // return false with nothing changed, as if the pool were exhausted.
  // Null disarms; the injector is not owned.
  void SetFaultInjector(fault::Injector* injector) { fault_ = injector; }
  uint64_t injected_faults() const {
    return fault_injected_.load(std::memory_order_relaxed);
  }

  // Always 0: the pool has no refill, drain or rebalance path. Kept only
  // because perfbench/ still reports its hv.hostpool_* metrics from
  // these; they go when that benchmark drops the metrics.
  uint64_t refills() const { return 0; }
  uint64_t drains() const { return 0; }
  uint64_t rebalances() const { return 0; }

 private:
  const uint64_t total_;
  alignas(64) Atomic<uint64_t> used_{0};
  alignas(64) Atomic<uint64_t> peak_{0};
  Atomic<uint64_t> fault_injected_{0};
  fault::Injector* fault_ = nullptr;
};

}  // namespace hyperalloc::hv

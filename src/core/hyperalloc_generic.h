// Generalized HyperAlloc for guests whose page-frame allocator cannot be
// shared directly (paper §6 "Concept Generalization"): the guest's buddy
// allocator stays private; guest and host exchange the per-huge-frame
// (A, E) state through an auxiliary memory-mapped array (hv::AuxState).
//
// The monitor is an adapter from that aux state to the host half it
// shares with HyperAllocMonitor (MonitorHost): install, batched unmap,
// the request lifecycle and the auto-reclamation timer are the same
// code. What the adapter adds is how free huge frames are found and
// claimed.
//
// What generalizes: DMA-safe *automatic* (soft) reclamation. The monitor
// scans (R, A) — same 18-cache-lines-per-GiB footprint — and claims free
// huge frames with one CAS that atomically checks A and sets E, so a
// concurrent guest allocation either sees E (and installs) or beats the
// CAS. Installs work exactly as with LLFree.
//
// What does not: lock-free *hard* reclamation. Without write access to
// the allocator's internals the monitor cannot mark frames allocated for
// the guest, so hard limit changes fall back to a guest-mediated
// balloon-style path (allocate the frames through the guest allocator) —
// slower, but still DMA-safe and batched. This asymmetry is the measured
// cost of not co-designing the allocator (see bench_inflate's
// "HyperAlloc-generic" rows and the ablation discussion).
//
// The monitor has no fault recovery of its own: a failed install or
// unmap is a checked failure.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/monitor_host.h"
#include "src/core/reclaim_states.h"
#include "src/guest/guest_vm.h"
#include "src/hv/aux_state.h"

namespace hyperalloc::core {

class GenericHyperAllocMonitor : public MonitorHost {
 public:
  // The guest must use the buddy allocator; the monitor attaches the
  // auxiliary (A, E) bridge and starts with all memory soft-reclaimed.
  explicit GenericHyperAllocMonitor(guest::GuestVm* vm);

  hv::DeflatorCaps caps() const override {
    return {.name = "HyperAlloc-generic",
            .dma_safe = true,
            .supports_auto = true,
            .granularity_bytes = kHugeSize};
  }

  void Request(const hv::ResizeRequest& request) override;
  uint64_t limit_bytes() const override;

  hv::AuxState& aux() { return aux_; }

  uint64_t AutoReclaimPass() override;

 private:
  void Install(HugeId huge);
  hv::Slice ShrinkSlice(uint64_t target_huge);
  hv::Slice GrowSlice(uint64_t target_huge);

  hv::AuxState aux_;
  ReclaimStateArray states_;
  std::vector<FrameId> hard_held_;  // guest allocations backing hard reclaim
  bool suppress_install_ = false;   // shrink path: frames leave the guest
};

}  // namespace hyperalloc::core

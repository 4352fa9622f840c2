// The host half of a HyperAlloc monitor (paper §3.2–3.3): everything that
// does not depend on how the guest's free huge frames are found.
// HyperAllocMonitor finds and claims them in the shared LLFree state; the
// generic monitor (§6 "Concept Generalization") in an auxiliary (A, E)
// array. Both hand what they claimed to this half, which
//  * installs a huge frame on the guest's blocking install hypercall: the
//    entry charge, populate + EPT map and, under VFIO, the IOMMU pin —
//    all before the allocation returns (DMA safety by construction);
//  * unmaps a batch of reclaimed huge frames: one madvise per contiguous
//    run, one ranged IOTLB invalidation per run under VFIO, and the
//    huge-frame reclaim share split (DESIGN.md §4.14);
//  * owns the request lifecycle and fault recovery (hv::Recovery), the
//    CPU accounting and the 5 s auto-reclamation timer.
#pragma once

#include <cstdint>
#include <vector>

#include "src/guest/guest_vm.h"
#include "src/hv/auto_timer.h"
#include "src/hv/deflator.h"
#include "src/hv/recovery.h"
#include "src/sim/simulation.h"

namespace hyperalloc::core {

// Auto-reclamation scan period (paper: every 5 seconds).
inline constexpr sim::Time kAutoPeriod = 5 * sim::kSec;
// Huge frames processed per event-loop slice, unless configured.
inline constexpr unsigned kHugepagesPerSlice = 512;

class MonitorHost : public hv::Deflator {
 public:
  bool busy() const override { return recovery_.busy(); }
  void StartAuto() override { auto_.Start(); }
  void StopAuto() override { auto_.Stop(); }
  const hv::CpuAccounting& cpu() const override { return cpu_; }
  // Of the huge frames handed to UnmapBatch, how many avoided per-4K EPT
  // work — untouched (nothing mapped, the §5.3 fast path) or invalidated
  // via a single 2 MiB EPT entry — vs. the ones that needed 512 separate
  // 4K invalidations (a demoted or piecewise-faulted frame).
  hv::HugeReclaimStats huge_reclaim() const override { return reclaim_; }

  uint64_t installs() const { return installs_; }
  uint64_t soft_reclaims() const { return soft_reclaims_; }

  // One full auto-reclamation pass (the timer's tick), callable directly
  // (tests, benches). Returns the number of huge frames soft-reclaimed.
  virtual uint64_t AutoReclaimPass() = 0;

 protected:
  // `in_kernel`: the §5.3 ablation's monitor integrated into KVM — the
  // install costs a plain EPT fault instead of a hypercall with a
  // kernel->user context switch, and unmapping zaps the EPT directly
  // instead of going through madvise.
  MonitorHost(guest::GuestVm* vm, bool in_kernel);

  // The install hypercall's host work for one huge frame, counted as an
  // install. Returns false once a fault is permanent or the retries are
  // spent: the guest's allocation already holds the frame either way.
  bool InstallHuge(HugeId global_huge);

  // What UnmapBatch does with a frame it could not finish: a non-owning
  // reference to a `void(HugeId global_huge, bool permanent)` callable,
  // called once per failed frame (so nothing per frame on the clean
  // path). `permanent`: the frame must be quarantined (a permanent unmap
  // fault, or unmapped but still pinned); otherwise its unmap failed
  // transiently and it must be rolled back to its pre-reclaim state.
  class UnmapFailure {
   public:
    template <class F>
    UnmapFailure(const F& f)  // implicit: callers pass a lambda
        : owner_(&f), call_([](const void* owner, HugeId huge, bool perm) {
            (*static_cast<const F*>(owner))(huge, perm);
          }) {}
    void operator()(HugeId huge, bool permanent) const {
      call_(owner_, huge, permanent);
    }

   private:
    const void* owner_;
    void (*call_)(const void*, HugeId, bool);
  };

  // Unmaps a batch of (globally addressed) reclaimed huge frames,
  // batching contiguous runs into single madvise calls. Under fault
  // injection an unmap or unpin may fail: transient failures retry with
  // backoff, then the frame goes to `on_fail` to be rolled back;
  // permanent failures (or unpin-retry exhaustion after the frame was
  // unmapped) go to `on_fail` to be quarantined. Returns the number of
  // frames that completed.
  uint64_t UnmapBatch(const std::vector<HugeId>& global_huge,
                      UnmapFailure on_fail);

  guest::GuestVm* vm_;
  sim::Simulation* sim_;
  hv::CpuAccounting cpu_;
  hv::Recovery recovery_;
  uint64_t soft_reclaims_ = 0;

 private:
  bool in_kernel_;
  hv::AutoTimer auto_;
  uint64_t installs_ = 0;
  hv::HugeReclaimStats reclaim_;
};

}  // namespace hyperalloc::core

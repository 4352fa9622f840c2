// HyperAlloc — the paper's contribution: VM memory de/inflation via a
// hypervisor-shared page-frame allocator (§3–4).
//
// The monitor holds a clone of each guest zone's LLFree allocator over the
// *same* shared state and manipulates guest-visible per-frame state (the
// A/E bits in the area index) with single CAS transactions — no guest
// transition is needed to find or claim reclaimable memory. The monitor's
// own authoritative state is the per-huge-frame R array (I/S/H).
//
// Mechanisms (paper §3.2/§3.3):
//  * Hard reclamation  — lowers the VM's hard memory limit: A<-1, E<-1,
//    unmap (batched madvise over contiguous runs), R<-H.
//  * Return            — raises the limit: A<-0 (E stays 1), R<-S. No
//    host memory moves; 229 ns of state work per huge frame.
//  * Install           — the guest's allocation of an evicted frame
//    triggers one blocking hypercall; the monitor populates + maps (EPT
//    and, under VFIO, IOMMU with pinning) before the allocation returns —
//    DMA safety by construction.
//  * Automatic (soft) reclamation — every 5 s the monitor scans R and the
//    shared area index (18 cache lines per GiB) and soft-reclaims free,
//    installed, host-backed huge frames.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/reclaim_states.h"
#include "src/guest/guest_vm.h"
#include "src/hv/deflator.h"
#include "src/hv/recovery.h"
#include "src/sim/simulation.h"
#include "src/trace/span.h"

namespace hyperalloc::core {

struct HyperAllocConfig {
  // Auto-reclamation scan period (paper: every 5 seconds).
  sim::Time auto_period = 5 * sim::kSec;
  // Huge frames processed per event-loop slice.
  unsigned hugepages_per_slice = 512;
  // §6 "Beyond Memory Reclamation": start with a hard limit below the
  // guest-physical memory size ("starting with a large guest-physical
  // memory but low hard limit"), so the VM can later grow beyond its
  // boot-time allotment. 0 = full memory.
  uint64_t initial_limit_bytes = 0;
  // §5.3 ablation: integrate the monitor into KVM instead of QEMU. The
  // install hypercall loses its extra kernel->user context switch (cost
  // drops to a plain EPT fault) and unmapping manipulates the EPT
  // directly instead of going through madvise syscalls.
  bool in_kernel = false;
  // The VM is poisoned (quarantined) once this many huge frames had to
  // be quarantined by unrecoverable faults.
  unsigned quarantine_frame_limit = 16;
};

class HyperAllocMonitor : public hv::Deflator {
 public:
  // The guest must use the LLFree allocator. The monitor maps each zone's
  // allocator state (paper §4.2 "Locating the Allocator State"), installs
  // the install-hypercall handler, and marks all memory soft-reclaimed:
  // a freshly booted VM has no populated memory, so every first
  // allocation installs its huge frame.
  HyperAllocMonitor(guest::GuestVm* vm, const HyperAllocConfig& config);

  hv::DeflatorCaps caps() const override {
    return {.name = "HyperAlloc",
            .dma_safe = true,
            .supports_auto = true,
            .granularity_bytes = kHugeSize};
  }

  void Request(const hv::ResizeRequest& request) override;
  uint64_t limit_bytes() const override;
  bool busy() const override { return recovery_.busy(); }

  void StartAuto() override;
  void StopAuto() override;

  const hv::CpuAccounting& cpu() const override { return cpu_; }

  // Introspection / statistics.
  uint64_t hard_reclaimed_bytes() const {
    return hard_reclaimed_huge_ * kHugeSize;
  }
  uint64_t installs() const { return installs_; }
  uint64_t soft_reclaims() const { return soft_reclaims_; }

  // Huge-frame reclaim share (DESIGN.md §4.14): of the huge frames this
  // monitor reclaimed and handed to UnmapBatch, how many avoided per-4K
  // EPT work — untouched (nothing mapped, the §5.3 fast path) or
  // invalidated via a single 2 MiB EPT entry — vs. the ones that needed
  // 512 separate 4K invalidations (a demoted or piecewise-faulted frame).
  uint64_t reclaim_untouched() const { return reclaim_untouched_; }
  uint64_t reclaim_unmapped_2m() const { return reclaim_unmapped_2m_; }
  uint64_t reclaim_unmapped_4k() const { return reclaim_unmapped_4k_; }
  // (untouched + 2m) / total, 1.0 when nothing was reclaimed yet.
  double HugeReclaimShare() const { return huge_reclaim().Share(); }

  // Fleet-visible form of the same split (hv::Deflator hook), so the
  // fleet engine can aggregate the share across VMs without knowing the
  // backend type.
  hv::HugeReclaimStats huge_reclaim() const override {
    return {.untouched = reclaim_untouched_,
            .via_2m = reclaim_unmapped_2m_,
            .via_4k = reclaim_unmapped_4k_};
  }

  // Fault-recovery statistics (DESIGN.md §4.9).
  uint64_t faults_seen() const { return recovery_.faults(); }
  uint64_t fault_retries() const { return recovery_.retries(); }
  uint64_t fault_timeouts() const { return recovery_.timeouts(); }
  uint64_t quarantined_huge() const { return quarantined_huge_; }
  bool vm_quarantined() const { return vm_quarantined_; }

  // §6 swap-strategy hook: the shared tree index carries each tree's
  // allocation type, so the host can prefer (e.g.) swapping movable user
  // memory over unmovable kernel memory. Read-only shared-state access.
  AllocType TreeTypeOf(HugeId global_huge) const;
  // §6 hotness hints: whether the guest accessed the huge frame since
  // the last few auto-reclamation scans (which age the counters).
  bool IsHot(HugeId global_huge) const;
  uint64_t scan_cache_lines_total() const { return scan_cache_lines_; }
  ReclaimState StateOf(HugeId global_huge) const;

  // One full auto-reclamation pass, callable directly (tests, benches).
  // Returns the number of huge frames soft-reclaimed.
  uint64_t AutoReclaimPass();

 private:
  struct ZoneView {
    guest::Zone* zone;
    std::unique_ptr<llfree::LLFree> monitor_view;  // clone on shared state
    ReclaimStateArray states;
    HugeId hint = 0;

    ZoneView(guest::Zone* z, uint64_t num_huge)
        : zone(z), states(num_huge) {}
  };

  // Zones in reclamation order: Normal zones first, then DMA32 (§4.2).
  std::vector<ZoneView*> ReclaimOrder();

  void Install(ZoneView& view, HugeId local_huge);

  // One shrink slice; escalation: 0 = free memory only, 1 = purge
  // allocator caches + raid reserved trees, 2 = evict page cache.
  void ShrinkSlice(uint64_t target_huge, int escalation,
                   std::function<void()> done);
  void GrowSlice(uint64_t target_huge, std::function<void()> done);

  // Unmaps a batch of (globally addressed) reclaimed huge frames,
  // batching contiguous runs into single madvise calls. Under fault
  // injection an unmap or unpin may fail: transient failures retry with
  // backoff, then roll the frame back to its pre-reclaim state; permanent
  // failures (or unpin-retry exhaustion after the frame was unmapped)
  // quarantine the frame. Returns the number of frames that completed.
  uint64_t UnmapBatch(const std::vector<HugeId>& global_huge);

  void AutoTick();

  // --- Fault recovery (DESIGN.md §4.9) -------------------------------
  // Maps a global huge id back to its zone view + local id; the one
  // zone-range lookup behind every per-frame query.
  ZoneView* FindView(HugeId global_huge, HugeId* local_huge) const;
  // Reverts a huge frame whose unmap failed transiently to its
  // pre-reclaim state (H -> S via return, S -> I via E-bit clear).
  void RollbackFrame(ZoneView& view, HugeId local_huge);
  // Poisons a single huge frame (absorbing Q state); trips VM quarantine
  // at config_.quarantine_frame_limit.
  void QuarantineFrame(ZoneView& view, HugeId local_huge);
  void QuarantineVm();

  guest::GuestVm* vm_;
  HyperAllocConfig config_;
  sim::Simulation* sim_;
  std::vector<std::unique_ptr<ZoneView>> zones_;

  uint64_t total_huge_;
  uint64_t hard_reclaimed_huge_ = 0;
  bool auto_running_ = false;

  // Fault recovery (DESIGN.md §4.9).
  uint64_t quarantined_huge_ = 0;
  bool vm_quarantined_ = false;
  unsigned stalled_slices_ = 0;  // consecutive zero-progress slices

  hv::CpuAccounting cpu_;
  hv::Recovery recovery_;
  uint64_t installs_ = 0;
  uint64_t soft_reclaims_ = 0;
  uint64_t scan_cache_lines_ = 0;

  // Huge-frame reclaim share split (DESIGN.md §4.14).
  uint64_t reclaim_untouched_ = 0;
  uint64_t reclaim_unmapped_2m_ = 0;
  uint64_t reclaim_unmapped_4k_ = 0;
};

}  // namespace hyperalloc::core

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
#include <memory>
#include <vector>

#include "src/core/monitor_host.h"
#include "src/core/reclaim_states.h"
#include "src/guest/guest_vm.h"

namespace hyperalloc::core {

struct HyperAllocConfig {
  // Huge frames processed per event-loop slice.
  unsigned hugepages_per_slice = kHugepagesPerSlice;
  // §6 "Beyond Memory Reclamation": start with a hard limit below the
  // guest-physical memory size ("starting with a large guest-physical
  // memory but low hard limit"), so the VM can later grow beyond its
  // boot-time allotment. 0 = full memory.
  uint64_t initial_limit_bytes = 0;
  // §5.3 ablation: integrate the monitor into KVM instead of QEMU (see
  // MonitorHost).
  bool in_kernel = false;
  // The VM is poisoned (quarantined) once this many huge frames had to
  // be quarantined by unrecoverable faults.
  unsigned quarantine_frame_limit = 16;
};

// The LLFree side of the monitor; the host side (install, unmap, request
// lifecycle, auto timer) is the MonitorHost it shares with the generic
// monitor.
class HyperAllocMonitor : public MonitorHost {
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

  // Introspection / statistics.
  uint64_t hard_reclaimed_bytes() const {
    return hard_reclaimed_huge_ * kHugeSize;
  }

  // Fault-recovery statistics (DESIGN.md §4.9).
  uint64_t faults_seen() const { return recovery_.faults(); }
  uint64_t fault_retries() const { return recovery_.retries(); }
  uint64_t fault_timeouts() const { return recovery_.timeouts(); }
  uint64_t quarantined_huge() const { return quarantined_huge_; }
  bool vm_quarantined() const { return recovery_.quarantined(); }

  // §6 swap-strategy hook: the shared tree index carries each tree's
  // allocation type, so the host can prefer (e.g.) swapping movable user
  // memory over unmovable kernel memory. Read-only shared-state access.
  AllocType TreeTypeOf(HugeId global_huge) const;
  // §6 hotness hints: whether the guest accessed the huge frame since
  // the last few auto-reclamation scans (which age the counters).
  bool IsHot(HugeId global_huge) const;
  uint64_t scan_cache_lines_total() const { return scan_cache_lines_; }
  ReclaimState StateOf(HugeId global_huge) const;

  uint64_t AutoReclaimPass() override;

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

  // One shrink slice. Carried over to the next: `escalation` (0 = free
  // memory only, 1 = purge allocator caches + raid reserved trees, 2 =
  // evict page cache) and `stalled_slices`, the consecutive slices that
  // made no progress.
  hv::Slice ShrinkSlice(uint64_t target_huge, int& escalation,
                        unsigned& stalled_slices);
  hv::Slice GrowSlice(uint64_t target_huge);

  // --- Fault recovery (DESIGN.md §4.9) -------------------------------
  // Maps a global huge id back to its zone view + local id; the one
  // zone-range lookup behind every per-frame query.
  ZoneView* FindView(HugeId global_huge, HugeId* local_huge) const;
  // UnmapBatch with this monitor's failure rule: quarantine the frame on
  // a permanent failure, else roll it back.
  uint64_t Unmap(const std::vector<HugeId>& global_huge);
  // Reverts a huge frame whose unmap failed transiently to its
  // pre-reclaim state (H -> S via return, S -> I via E-bit clear).
  void RollbackFrame(ZoneView& view, HugeId local_huge);
  // Poisons a single huge frame (absorbing Q state); trips VM quarantine
  // at config_.quarantine_frame_limit.
  void QuarantineFrame(ZoneView& view, HugeId local_huge);
  void QuarantineVm();

  HyperAllocConfig config_;
  std::vector<std::unique_ptr<ZoneView>> zones_;

  uint64_t hard_reclaimed_huge_ = 0;

  // Fault recovery (DESIGN.md §4.9).
  uint64_t quarantined_huge_ = 0;

  uint64_t scan_cache_lines_ = 0;
};

}  // namespace hyperalloc::core

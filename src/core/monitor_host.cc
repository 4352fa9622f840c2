#include "src/core/monitor_host.h"

#include <algorithm>
#include <optional>

#include "src/base/check.h"
#include "src/trace/span.h"
#include "src/trace/trace.h"

namespace hyperalloc::core {

MonitorHost::MonitorHost(guest::GuestVm* vm, bool in_kernel)
    : vm_(vm),
      sim_(vm->simulation()),
      recovery_(vm->simulation(),
                {.fault = "monitor.fault",
                 .retry = "monitor.fault_retry",
                 .rollback = "monitor.fault_rollback",
                 .timeout = "monitor.request_timeout",
                 .backoff_ns = "monitor.fault_backoff_ns"},
                this, &cpu_),
      in_kernel_(in_kernel),
      auto_(vm->simulation(), kAutoPeriod, [this] {
        AutoReclaimPass();
        return kAutoPeriod;
      }) {}

bool MonitorHost::InstallHuge(HugeId global_huge) {
  // Blocking install hypercall (§3.2 "Return and Install"): the guest's
  // allocation waits until the memory is populated, mapped, and — with a
  // passthrough device — pinned. Only then may it be handed out (DMA
  // safety).
  const sim::Time t0 = sim_->now();
  // Installs are their own causal roots: they are triggered by guest
  // allocations, not by a resize request.
  [[maybe_unused]] trace::ScopedRoot root;
  trace::Span span(trace::Layer::kMonitor, "monitor.install");
  span.AddFrames(kFramesPerHuge);
  span.AddHugeFrames(kFramesPerHuge);
  // In-kernel integration (§5.3 ablation): no KVM->QEMU context switch —
  // the install costs no more than the EPT fault it replaces.
  const uint64_t entry_ns = in_kernel_ ? vm_->costs().ept_fault_2m_ns
                                       : vm_->costs().install_hypercall_2m_ns;
  const FrameId first = HugeToFrame(global_huge);
  fault::Injector* injector = vm_->fault_injector();

  const bool ok = recovery_.Retry([&] {
    if (const auto kind =
            fault::Poll(injector, fault::Site::kInstallHypercall)) {
      HA_COUNT("fault.install_hypercall");
      return recovery_.Fault(*kind);
    }
    cpu_.host_user_ns +=
        hv::ChargeTraced(sim_, "monitor.install_entry_ns", entry_ns);
    if (!in_kernel_) {
      HA_COUNT("monitor.hypercall");
    }
    {
      trace::Span populate(trace::Layer::kEpt, "ept.populate");
      populate.AddFrames(kFramesPerHuge);
      populate.AddHugeFrames(kFramesPerHuge);
      const uint64_t ept_faults = vm_->ept().injected_faults();
      if (!vm_->PopulateFrames(first, kFramesPerHuge)) {
        // An injected map fault or host exhaustion; only an injected
        // fault can be permanent.
        return recovery_.Fault(vm_->ept().injected_faults() > ept_faults
                                   ? vm_->ept().last_injected_kind()
                                   : fault::Kind::kTransient);
      }
      cpu_.host_sys_ns += hv::ChargeTraced(
          sim_, "monitor.install_ns",
          kFramesPerHuge * vm_->costs().populate_4k_ns);
    }
    if (vm_->config().vfio) {
      trace::Span pin(trace::Layer::kIommu, "iommu.pin");
      pin.AddFrames(kFramesPerHuge);
      pin.AddHugeFrames(kFramesPerHuge);
      vm_->iommu()->Pin(global_huge);
      if (!vm_->iommu()->IsPinned(global_huge)) {
        return recovery_.Fault(vm_->iommu()->last_injected_kind());
      }
      cpu_.host_sys_ns += hv::ChargeTraced(sim_, "monitor.install_pin_ns",
                                           vm_->costs().iommu_map_2m_ns);
    }
    return hv::Attempt::kOk;
  });
  HA_COUNT("monitor.install");
  if (sim_->now() > t0) {
    vm_->sink().OnBandwidth(t0, sim_->now(),
                            static_cast<double>(kHugeSize) /
                                static_cast<double>(sim_->now() - t0));
  }
  ++installs_;
  return ok;
}

uint64_t MonitorHost::UnmapBatch(const std::vector<HugeId>& global_huge,
                                 UnmapFailure on_fail) {
  if (global_huge.empty()) {
    return 0;
  }
  std::vector<HugeId> sorted = global_huge;
  std::sort(sorted.begin(), sorted.end());

  const sim::Time t0 = sim_->now();
  uint64_t shootdown_allcpu_ns = 0;
  uint64_t completed = 0;

  // Contiguous runs are unmapped with a single madvise syscall — the
  // aggregation that LLFree's compact allocation behaviour makes
  // effective (§4.2 "KVM/QEMU Integration"). Each run's unmap and its
  // madvise/TLB cost sit inside an EPT-layer span and each run's
  // coalesced unpin inside an IOMMU-layer span, so request traces
  // attribute the flush work to the layer that incurs it.
  size_t i = 0;
  while (i < sorted.size()) {
    size_t j = i + 1;
    while (j < sorted.size() && sorted[j] == sorted[j - 1] + 1) {
      ++j;
    }
    uint64_t mapped_huge = 0;
    uint64_t mapped_huge_2m = 0;  // of those, unmapped via a 2M EPT entry
    uint64_t run_sys_ns = 0;
    // Frames whose unmap completed (or that had nothing mapped) move on
    // to the unpin phase; failed frames are rolled back or quarantined
    // and must keep their pin (a rolled-back frame stays mapped).
    std::vector<bool> unmapped(j - i, false);
    uint64_t run_ok = 0;
    // Opened at the run's first mapped frame: an untouched run has no
    // EPT work and no span.
    std::optional<trace::Span> unmap;
    for (size_t k = i; k < j; ++k) {
      const FrameId first = HugeToFrame(sorted[k]);
      if (vm_->ept().CountMapped(first, kFramesPerHuge) == 0) {
        unmapped[k - i] = true;  // §5.3 "reclaim untouched" fast path
        ++run_ok;
        ++reclaim_.untouched;
        continue;
      }
      if (!unmap.has_value()) {
        unmap.emplace(trace::Layer::kEpt, "ept.unmap_run");
      }
      // §4.14 reclaim-share split: read the 2M-entry bit before Unmap
      // invalidates it.
      const bool entry_2m = vm_->ept().HasHugeEntry(sorted[k]);
      if (recovery_.Retry([&] {
            return vm_->ept().Unmap(first, kFramesPerHuge) !=
                           hv::Ept::kFaultInjected
                       ? hv::Attempt::kOk
                       : recovery_.Fault(vm_->ept().last_injected_kind());
          })) {
        unmapped[k - i] = true;
        ++run_ok;
        ++mapped_huge;
        if (entry_2m) {
          ++mapped_huge_2m;
          ++reclaim_.via_2m;
        } else {
          ++reclaim_.via_4k;
        }
        run_sys_ns += vm_->costs().madvise_per_2m_ns;
        shootdown_allcpu_ns += vm_->costs().shootdown_allcpu_2m_ns;
        continue;
      }
      // The last injected kind tells a permanent fault from spent retries.
      on_fail(sorted[k],
              vm_->ept().last_injected_kind() == fault::Kind::kPermanent);
    }
    if (mapped_huge > 0) {
      // In-kernel: direct EPT zap, no madvise syscall per run.
      run_sys_ns += (in_kernel_ ? 0 : vm_->costs().madvise_syscall_ns) +
                    vm_->costs().tlb_shootdown_ns;
      if (!in_kernel_) {
        HA_COUNT("monitor.madvise");
      }
      unmap->AddFrames(mapped_huge * kFramesPerHuge);
      unmap->AddHugeFrames(mapped_huge_2m * kFramesPerHuge);
      cpu_.host_sys_ns +=
          hv::ChargeTraced(sim_, "monitor.unmap_ns", run_sys_ns);
    }
    unmap.reset();
    if (!vm_->config().vfio) {
      completed += run_ok;
    } else if (run_ok == j - i) {
      // Clean run (the only path with injection off): coalesced IOTLB
      // invalidation — unpin the whole contiguous run and pay ONE ranged
      // flush for it, not one flush per huge frame — the same batching
      // the madvise path above gets from contiguity.
      uint64_t unpinned = 0;
      if (recovery_.Retry([&] {
            const uint64_t faults = vm_->iommu()->injected_faults();
            unpinned = vm_->iommu()->UnpinRange(sorted[i], j - i);
            return vm_->iommu()->injected_faults() == faults
                       ? hv::Attempt::kOk
                       : recovery_.Fault(vm_->iommu()->last_injected_kind());
          })) {
        if (unpinned > 0) {
          trace::Span unpin(trace::Layer::kIommu, "iommu.unpin_range");
          unpin.AddFrames(unpinned * kFramesPerHuge);
          unpin.AddHugeFrames(unpinned * kFramesPerHuge);
          cpu_.host_sys_ns += hv::ChargeTraced(
              sim_, "monitor.unmap_iommu_ns",
              unpinned * vm_->costs().iommu_unmap_2m_ns +
                  vm_->costs().iotlb_flush_ns);
        }
        completed += run_ok;
      } else {
        // Unpin retries exhausted: the run is already unmapped but may
        // still be pinned — poison every still-pinned frame.
        for (size_t k = i; k < j; ++k) {
          if (!vm_->iommu()->IsPinned(sorted[k])) {
            ++completed;
            continue;
          }
          on_fail(sorted[k], /*permanent=*/true);
        }
      }
    } else {
      // Degraded run: unpin only the frames that actually unmapped, one
      // flush each (rolled-back frames stay mapped and keep their pin).
      for (size_t k = i; k < j; ++k) {
        if (!unmapped[k - i]) {
          continue;
        }
        if (!vm_->iommu()->IsPinned(sorted[k])) {
          ++completed;
          continue;
        }
        // The frame is pinned, so only an injected fault fails the unpin.
        if (recovery_.Retry([&] {
              return vm_->iommu()->UnpinRange(sorted[k], 1) == 1
                         ? hv::Attempt::kOk
                         : recovery_.Fault(vm_->iommu()->last_injected_kind());
            })) {
          trace::Span unpin(trace::Layer::kIommu, "iommu.unpin_range");
          unpin.AddFrames(kFramesPerHuge);
          unpin.AddHugeFrames(kFramesPerHuge);
          cpu_.host_sys_ns += hv::ChargeTraced(
              sim_, "monitor.unmap_iommu_ns",
              vm_->costs().iommu_unmap_2m_ns + vm_->costs().iotlb_flush_ns);
          ++completed;
        } else {
          on_fail(sorted[k], /*permanent=*/true);
        }
      }
    }
    i = j;
  }

  HA_HIST("monitor.unmap_batch_huge", sorted.size());
  const sim::Time t1 = sim_->now();
  if (shootdown_allcpu_ns > 0 && t1 > t0) {
    vm_->sink().OnAllCpusSteal(
        t0, t1,
        static_cast<double>(shootdown_allcpu_ns) /
            static_cast<double>(t1 - t0));
  }
  return completed;
}

}  // namespace hyperalloc::core

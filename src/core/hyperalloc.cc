#include "src/core/hyperalloc.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/trace/trace.h"

namespace hyperalloc::core {

HyperAllocMonitor::HyperAllocMonitor(guest::GuestVm* vm,
                                     const HyperAllocConfig& config)
    : vm_(vm), config_(config), sim_(vm->simulation()),
      total_huge_(HugesForFrames(vm->total_frames())),
      recovery_(vm->simulation(),
                {.fault = "monitor.fault",
                 .retry = "monitor.fault_retry",
                 .rollback = "monitor.fault_rollback",
                 .timeout = "monitor.request_timeout",
                 .backoff_ns = "monitor.fault_backoff_ns"},
                &cpu_, &outcome_) {
  HA_CHECK(vm != nullptr);
  HA_CHECK(vm->config().allocator == guest::AllocatorKind::kLLFree);

  for (guest::Zone& zone : vm_->zones()) {
    HA_CHECK(zone.llfree_state != nullptr);
    auto view = std::make_unique<ZoneView>(&zone, zone.frames /
                                                      kFramesPerHuge);
    // The monitor's clone of the guest allocator over the shared state.
    view->monitor_view =
        std::make_unique<llfree::LLFree>(zone.llfree_state.get());
    // A fresh VM has no populated guest-physical memory: every huge frame
    // starts soft-reclaimed (M=0 => E=1), so first allocations install.
    for (HugeId h = 0; h < view->states.size(); ++h) {
      view->monitor_view->SetEvicted(h);
      view->states.Set(h, ReclaimState::kSoft);
    }
    ZoneView* raw = view.get();
    zone.llfree->SetInstallHandler(
        [this, raw](HugeId huge) { Install(*raw, huge); });
    zones_.push_back(std::move(view));
  }

  if (config.initial_limit_bytes > 0 &&
      config.initial_limit_bytes < vm->config().memory_bytes) {
    // Boot with a reduced hard limit: hard-reclaim the excess up front
    // (pure state work — nothing is populated yet).
    const uint64_t target =
        (vm->config().memory_bytes - config.initial_limit_bytes) /
        kHugeSize;
    for (ZoneView* view : ReclaimOrder()) {
      for (HugeId h = 0;
           h < view->states.size() && hard_reclaimed_huge_ < target; ++h) {
        if (view->monitor_view->TryHardReclaim(h)) {
          view->states.Set(h, ReclaimState::kHard);
          ++hard_reclaimed_huge_;
        }
      }
    }
    HA_CHECK(hard_reclaimed_huge_ == target);
  }
}

AllocType HyperAllocMonitor::TreeTypeOf(HugeId global_huge) const {
  HugeId local = 0;
  const llfree::LLFree& llfree = *FindView(global_huge, &local)->zone->llfree;
  return llfree.ReadTree(local / llfree.config().areas_per_tree).type;
}

std::vector<HyperAllocMonitor::ZoneView*> HyperAllocMonitor::ReclaimOrder() {
  // Normal zones before DMA32 (§4.2); the tiny DMA zone does not exist in
  // this model.
  std::vector<ZoneView*> order;
  for (const auto& view : zones_) {
    if (view->zone->kind == guest::ZoneKind::kNormal) {
      order.push_back(view.get());
    }
  }
  for (const auto& view : zones_) {
    if (view->zone->kind != guest::ZoneKind::kNormal) {
      order.push_back(view.get());
    }
  }
  return order;
}

uint64_t HyperAllocMonitor::limit_bytes() const {
  // Quarantined frames are lost to the guest just like hard-reclaimed
  // ones: the monitor claimed them in the shared allocator so the guest
  // can never allocate (and thus install) a poisoned frame.
  return vm_->config().memory_bytes -
         (hard_reclaimed_huge_ + quarantined_huge_) * kHugeSize;
}

HyperAllocMonitor::ZoneView* HyperAllocMonitor::FindView(
    HugeId global_huge, HugeId* local_huge) const {
  for (const auto& view : zones_) {
    const HugeId first = FrameToHuge(view->zone->start);
    if (global_huge >= first && global_huge < first + view->states.size()) {
      *local_huge = global_huge - first;
      return view.get();
    }
  }
  HA_CHECK(false && "huge frame outside every zone");
  __builtin_unreachable();
}

void HyperAllocMonitor::RollbackFrame(ZoneView& view, HugeId local_huge) {
  recovery_.Rollback();
  const ReclaimState prior = view.states.Get(local_huge);
  if (prior == ReclaimState::kHard) {
    // Hard reclaim could not unmap: return the frame (A<-0, R<-S) as if
    // it had never been hard-reclaimed. A later slice may retry it.
    view.states.Set(local_huge, ReclaimState::kSoft);
    HA_CHECK(view.monitor_view->MarkReturned(local_huge));
    HA_CHECK(hard_reclaimed_huge_ > 0);
    --hard_reclaimed_huge_;
  } else if (prior == ReclaimState::kSoft) {
    // Soft reclaim could not unmap: clear E again; the frame stays
    // installed and host-backed.
    view.monitor_view->ClearEvicted(local_huge);
    view.states.Set(local_huge, ReclaimState::kInstalled);
  }
}

void HyperAllocMonitor::QuarantineFrame(ZoneView& view, HugeId local_huge) {
  const ReclaimState prior = view.states.Get(local_huge);
  if (prior == ReclaimState::kHard) {
    HA_CHECK(hard_reclaimed_huge_ > 0);
    --hard_reclaimed_huge_;
  } else if (prior == ReclaimState::kSoft) {
    // Claim the frame in the shared allocator (A<-1) so the guest can
    // never allocate — and thus never install — the poisoned frame. The
    // frame is free (soft-reclaimed), so this cannot fail.
    HA_CHECK(view.monitor_view->TryHardReclaim(local_huge,
                                               /*allow_reserved=*/true));
  }
  view.states.Set(local_huge, ReclaimState::kQuarantined);
  ++quarantined_huge_;
  HA_COUNT("monitor.quarantine_frame");
  if (fault::Injector* injector = vm_->fault_injector()) {
    injector->NotifyQuarantineFrame();
  }
  if (quarantined_huge_ >= config_.quarantine_frame_limit) {
    QuarantineVm();
  }
}

void HyperAllocMonitor::QuarantineVm() {
  if (vm_quarantined_) {
    return;
  }
  vm_quarantined_ = true;
  StopAuto();
  HA_COUNT("monitor.quarantine_vm");
  if (fault::Injector* injector = vm_->fault_injector()) {
    injector->NotifyQuarantineVm();
  }
}

ReclaimState HyperAllocMonitor::StateOf(HugeId global_huge) const {
  HugeId local = 0;
  return FindView(global_huge, &local)->states.Get(local);
}

void HyperAllocMonitor::Install(ZoneView& view, HugeId local_huge) {
  // Blocking install hypercall (§3.2 "Return and Install"): the guest's
  // allocation waits until the memory is populated, mapped, and — with a
  // passthrough device — pinned. Only then may it be handed out (DMA
  // safety).
  HA_DCHECK(view.states.Get(local_huge) == ReclaimState::kSoft);
  const sim::Time t0 = sim_->now();
  // Installs are their own causal roots: they are triggered by guest
  // allocations, not by a resize request.
  [[maybe_unused]] trace::ScopedRoot root;
  trace::Span span(trace::Layer::kMonitor, "monitor.install");
  span.AddFrames(kFramesPerHuge);
  span.AddHugeFrames(kFramesPerHuge);
  // In-kernel integration (§5.3 ablation): no KVM->QEMU context switch —
  // the install costs no more than the EPT fault it replaces.
  const uint64_t entry_ns = config_.in_kernel
                                ? vm_->costs().ept_fault_2m_ns
                                : vm_->costs().install_hypercall_2m_ns;
  const FrameId global_first = view.zone->start + HugeToFrame(local_huge);
  fault::Injector* injector = vm_->fault_injector();

  const bool ok = recovery_.Retry([&] {
    if (const auto kind =
            fault::Poll(injector, fault::Site::kInstallHypercall)) {
      HA_COUNT("fault.install_hypercall");
      return recovery_.Fault(*kind);
    }
    cpu_.host_user_ns +=
        hv::ChargeTraced(sim_, "monitor.install_entry_ns", entry_ns);
    if (!config_.in_kernel) {
      HA_COUNT("monitor.hypercall");
    }
    {
      trace::Span populate(trace::Layer::kEpt, "ept.populate");
      populate.AddFrames(kFramesPerHuge);
      populate.AddHugeFrames(kFramesPerHuge);
      const uint64_t ept_faults = vm_->ept().injected_faults();
      if (!vm_->PopulateFrames(global_first, kFramesPerHuge)) {
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
      vm_->iommu()->Pin(FrameToHuge(global_first));
      if (!vm_->iommu()->IsPinned(FrameToHuge(global_first))) {
        return recovery_.Fault(vm_->iommu()->last_injected_kind());
      }
      cpu_.host_sys_ns += hv::ChargeTraced(sim_, "monitor.install_pin_ns",
                                           vm_->costs().iommu_map_2m_ns);
    }
    return hv::Attempt::kOk;
  });
  if (!ok) {
    // Retries exhausted (or a permanent fault): the guest allocation has
    // already claimed the frame, so hand it over anyway — it populates
    // lazily on first touch — and poison the VM, because the install's
    // DMA-safety guarantee ("populated and pinned before the allocation
    // returns") no longer holds.
    QuarantineVm();
  }
  HA_COUNT("monitor.install");
  if (sim_->now() > t0) {
    vm_->sink().OnBandwidth(t0, sim_->now(),
                            static_cast<double>(kHugeSize) /
                                static_cast<double>(sim_->now() - t0));
  }

  view.states.Set(local_huge, ReclaimState::kInstalled);
  view.monitor_view->ClearEvicted(local_huge);
  ++installs_;
}

uint64_t HyperAllocMonitor::UnmapBatch(
    const std::vector<HugeId>& global_huge) {
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
  // effective (§4.2 "KVM/QEMU Integration"). Each run's madvise/TLB cost
  // is charged inside an EPT-layer span and each run's coalesced unpin
  // inside an IOMMU-layer span, so request traces attribute the flush
  // work to the layer that incurs it (total charge is unchanged).
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
    for (size_t k = i; k < j; ++k) {
      const FrameId first = HugeToFrame(sorted[k]);
      if (vm_->ept().CountMapped(first, kFramesPerHuge) == 0) {
        unmapped[k - i] = true;  // §5.3 "reclaim untouched" fast path
        ++run_ok;
        ++reclaim_untouched_;
        continue;
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
          ++reclaim_unmapped_2m_;
        } else {
          ++reclaim_unmapped_4k_;
        }
        run_sys_ns += vm_->costs().madvise_per_2m_ns;
        shootdown_allcpu_ns += vm_->costs().shootdown_allcpu_2m_ns;
        continue;
      }
      // The last injected kind tells a permanent fault from spent retries.
      HugeId local = 0;
      ZoneView* view = FindView(sorted[k], &local);
      if (vm_->ept().last_injected_kind() == fault::Kind::kPermanent) {
        QuarantineFrame(*view, local);
      } else {
        RollbackFrame(*view, local);
      }
    }
    if (mapped_huge > 0) {
      // In-kernel: direct EPT zap, no madvise syscall per run.
      run_sys_ns += (config_.in_kernel ? 0
                                       : vm_->costs().madvise_syscall_ns) +
                    vm_->costs().tlb_shootdown_ns;
      if (!config_.in_kernel) {
        HA_COUNT("monitor.madvise");
      }
      trace::Span unmap(trace::Layer::kEpt, "ept.unmap_run");
      unmap.AddFrames(mapped_huge * kFramesPerHuge);
      unmap.AddHugeFrames(mapped_huge_2m * kFramesPerHuge);
      cpu_.host_sys_ns +=
          hv::ChargeTraced(sim_, "monitor.unmap_ns", run_sys_ns);
    }
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
          HugeId local = 0;
          ZoneView* view = FindView(sorted[k], &local);
          QuarantineFrame(*view, local);
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
          HugeId local = 0;
          ZoneView* view = FindView(sorted[k], &local);
          QuarantineFrame(*view, local);
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

void HyperAllocMonitor::Request(const hv::ResizeRequest& request) {
  HA_CHECK(request.target_bytes <= vm_->config().memory_bytes);
  stalled_slices_ = 0;
  const uint64_t target_hard =
      (vm_->config().memory_bytes - request.target_bytes) / kHugeSize;
  // Quarantined frames already count against the limit, so the request
  // only has to move the remainder.
  const uint64_t held = hard_reclaimed_huge_ + quarantined_huge_;
  const bool shrink = target_hard > held;
  recovery_.Begin(
      request, shrink,
      (shrink ? target_hard - held : held - target_hard) * kFramesPerHuge);
  auto finish = [this] {
    recovery_.Finish(limit_bytes(), vm_quarantined_);
  };
  if (vm_quarantined_) {
    finish();  // a poisoned VM refuses resizes: report and complete
    return;
  }
  if (shrink) {
    ShrinkSlice(target_hard, /*escalation=*/0, std::move(finish));
  } else {
    GrowSlice(target_hard, std::move(finish));
  }
}

void HyperAllocMonitor::ShrinkSlice(uint64_t target_huge, int escalation,
                                    std::function<void()> done) {
  // Re-enter the request's trace (slices run as separate event-loop
  // callbacks, so the thread context must be restored each time).
  trace::ScopedContext request_context(recovery_.context());
  trace::Span slice(trace::Layer::kMonitor, "monitor.shrink_slice");
  if (vm_quarantined_) {
    done();  // poisoned mid-request: stop with a partial reclaim
    return;
  }
  if (recovery_.TimedOut()) {
    done();  // partial reclaim: every frame is in a legal state as-is
    return;
  }
  std::vector<HugeId> batch;
  const std::vector<ZoneView*> order = ReclaimOrder();

  // Linear scan with a persistent per-zone hint, Normal zones before
  // DMA32 (§4.2). The hint makes repeated shrink/grow cycles naturally
  // re-take the previously reclaimed (still evicted) region first — the
  // "reclaim untouched" fast path of §5.3, which needs no unmapping.
  {
    trace::Span reclaim(trace::Layer::kLLFree, "llfree.reclaim_huge");
    for (ZoneView* view : order) {
      while (hard_reclaimed_huge_ + quarantined_huge_ < target_huge &&
             batch.size() < config_.hugepages_per_slice) {
        const std::optional<HugeId> huge = view->monitor_view->ReclaimHuge(
            view->hint, /*hard=*/true, /*allow_reserved=*/escalation >= 1);
        if (!huge.has_value()) {
          break;  // zone exhausted; try the next one
        }
        view->hint = (*huge + 1) % view->states.size();
        cpu_.host_user_ns += hv::ChargeTraced(
            sim_, "monitor.reclaim_ns", vm_->costs().ha_reclaim_state_2m_ns);
        view->states.Set(*huge, ReclaimState::kHard);
        batch.push_back(FrameToHuge(view->zone->start) + *huge);
        HA_COUNT("monitor.reclaim_hard");
        ++hard_reclaimed_huge_;
      }
    }
    reclaim.AddFrames(batch.size() * kFramesPerHuge);
    reclaim.AddHugeFrames(batch.size() * kFramesPerHuge);
  }
  const uint64_t quarantined_before = quarantined_huge_;
  const uint64_t completed = UnmapBatch(batch);

  if (hard_reclaimed_huge_ + quarantined_huge_ >= target_huge) {
    done();
    return;
  }
  if (vm_quarantined_) {
    done();  // quarantine tripped mid-batch: stop with a partial reclaim
    return;
  }
  if (batch.empty()) {
    // No fully free huge frame found: escalate the memory pressure
    // (§3.3: "we instruct the guest to free the remaining memory from
    // its caches and retry").
    if (escalation == 0) {
      vm_->PurgeAllocatorCaches();
      escalation = 1;
    } else if (vm_->cache_bytes() > 0) {
      vm_->CacheDrop(64 * kMiB);
    } else {
      done();  // nothing left to reclaim at huge granularity
      return;
    }
  } else if (completed == 0 && quarantined_huge_ == quarantined_before) {
    // Every reclaimed frame was rolled back by transient faults: no net
    // progress. A few stalled slices in a row mean the fault rate is too
    // high to ever finish — give up with a partial reclaim instead of
    // spinning (the hint would re-find the same frames forever).
    if (++stalled_slices_ >= 3) {
      done();
      return;
    }
  } else {
    stalled_slices_ = 0;
  }
  sim_->After(0, [this, target_huge, escalation,
                  done = std::move(done)]() mutable {
    ShrinkSlice(target_huge, escalation, std::move(done));
  });
}

void HyperAllocMonitor::GrowSlice(uint64_t target_huge,
                                  std::function<void()> done) {
  trace::ScopedContext request_context(recovery_.context());
  trace::Span slice(trace::Layer::kMonitor, "monitor.grow_slice");
  unsigned returned = 0;
  {
    trace::Span mark(trace::Layer::kLLFree, "llfree.mark_returned");
    for (const auto& view : zones_) {
      for (HugeId h = 0;
           h < view->states.size() &&
           hard_reclaimed_huge_ + quarantined_huge_ > target_huge &&
           returned < config_.hugepages_per_slice;
           ++h) {
        if (view->states.Get(h) != ReclaimState::kHard) {
          continue;
        }
        // R<-S before the return: once the tree is credited the guest
        // may allocate the frame and its install expects R = S.
        view->states.Set(h, ReclaimState::kSoft);
        HA_CHECK(view->monitor_view->MarkReturned(h));
        cpu_.host_user_ns += hv::ChargeTraced(
            sim_, "monitor.return_ns", vm_->costs().ha_return_state_2m_ns);
        HA_COUNT("monitor.return");
        --hard_reclaimed_huge_;
        ++returned;
      }
    }
    mark.AddFrames(static_cast<uint64_t>(returned) * kFramesPerHuge);
    mark.AddHugeFrames(static_cast<uint64_t>(returned) * kFramesPerHuge);
  }
  // Quarantined frames cannot be returned: a grow request against a VM
  // with quarantined memory finishes partial (returned == 0 once only
  // quarantined frames remain above the target).
  if (hard_reclaimed_huge_ + quarantined_huge_ <= target_huge ||
      returned == 0) {
    done();
    return;
  }
  sim_->After(0, [this, target_huge, done = std::move(done)]() mutable {
    GrowSlice(target_huge, std::move(done));
  });
}

bool HyperAllocMonitor::IsHot(HugeId global_huge) const {
  HugeId local = 0;
  return FindView(global_huge, &local)->zone->llfree->HotnessOf(local) > 0;
}

uint64_t HyperAllocMonitor::AutoReclaimPass() {
  if (vm_quarantined_) {
    return 0;  // a poisoned VM stops background reclamation
  }
  // Auto-reclamation is its own causal root (a periodic scan, not part
  // of any resize request).
  [[maybe_unused]] trace::ScopedRoot root;
  trace::Span pass(trace::Layer::kMonitor, "monitor.auto_reclaim_pass");
  std::vector<HugeId> batch;
  for (ZoneView* view : ReclaimOrder()) {
    // Linear scan over the R array (2 bit/huge) and the shared area index
    // (16 bit/huge): 18 consecutive cache lines per GiB (§3.3).
    const uint64_t lines =
        (view->states.size() * 2 + 511) / 512 +       // area index (16 bit)
        (view->states.ByteSize() + 63) / 64;          // R array (2 bit)
    scan_cache_lines_ += lines;
    HA_COUNT_N("monitor.scan_cache_lines", lines);
    cpu_.host_user_ns += hv::ChargeTraced(
        sim_, "monitor.scan_ns", lines * vm_->costs().scan_cache_line_ns);

    for (HugeId h = 0; h < view->states.size(); ++h) {
      // Age the guest's access hints as part of the scan (the host-side
      // half of the §6 hotness protocol).
      view->monitor_view->AgeHotness(h);
      if (view->states.Get(h) != ReclaimState::kInstalled) {
        continue;
      }
      const llfree::AreaEntry entry = view->monitor_view->ReadArea(h);
      if (!entry.IsFreeHuge() || entry.evicted) {
        continue;
      }
      if (!view->monitor_view->TrySoftReclaim(h)) {
        continue;  // guest raced us: it just allocated the frame
      }
      cpu_.host_user_ns += hv::ChargeTraced(
          sim_, "monitor.reclaim_ns", vm_->costs().ha_reclaim_state_2m_ns);
      view->states.Set(h, ReclaimState::kSoft);
      batch.push_back(FrameToHuge(view->zone->start) + h);
      HA_COUNT("monitor.reclaim_soft");
    }
  }
  // Rolled-back frames do not count: only frames that actually unmapped
  // (or were already unmapped) are net soft reclaims.
  const uint64_t completed = UnmapBatch(batch);
  pass.AddFrames(batch.size() * kFramesPerHuge);
  pass.AddHugeFrames(batch.size() * kFramesPerHuge);
  soft_reclaims_ += completed;
  return completed;
}

void HyperAllocMonitor::StartAuto() {
  if (auto_running_) {
    return;
  }
  auto_running_ = true;
  sim_->After(config_.auto_period, [this] { AutoTick(); });
}

void HyperAllocMonitor::StopAuto() { auto_running_ = false; }

void HyperAllocMonitor::AutoTick() {
  if (!auto_running_) {
    return;
  }
  AutoReclaimPass();
  sim_->After(config_.auto_period, [this] { AutoTick(); });
}

}  // namespace hyperalloc::core

#include "src/core/hyperalloc.h"

#include "src/base/check.h"
#include "src/trace/span.h"
#include "src/trace/trace.h"

namespace hyperalloc::core {

HyperAllocMonitor::HyperAllocMonitor(guest::GuestVm* vm,
                                     const HyperAllocConfig& config)
    : MonitorHost(vm, config.in_kernel), config_(config) {
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
    injector->NotifyQuarantineFrame(
        vm_->ept().CountMapped(view.zone->start + HugeToFrame(local_huge),
                               kFramesPerHuge) > 0);
  }
  if (quarantined_huge_ >= config_.quarantine_frame_limit) {
    QuarantineVm();
  }
}

void HyperAllocMonitor::QuarantineVm() {
  if (recovery_.quarantined()) {
    return;
  }
  recovery_.Quarantine();
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
  HA_DCHECK(view.states.Get(local_huge) == ReclaimState::kSoft);
  if (!InstallHuge(FrameToHuge(view.zone->start) + local_huge)) {
    // Retries exhausted (or a permanent fault): the guest allocation has
    // already claimed the frame, so hand it over anyway — it populates
    // lazily on first touch — and poison the VM, because the install's
    // DMA-safety guarantee ("populated and pinned before the allocation
    // returns") no longer holds.
    QuarantineVm();
  }
  view.states.Set(local_huge, ReclaimState::kInstalled);
  view.monitor_view->ClearEvicted(local_huge);
}

uint64_t HyperAllocMonitor::Unmap(const std::vector<HugeId>& global_huge) {
  return UnmapBatch(global_huge, [this](HugeId huge, bool permanent) {
    HugeId local = 0;
    ZoneView* view = FindView(huge, &local);
    if (permanent) {
      QuarantineFrame(*view, local);
    } else {
      RollbackFrame(*view, local);
    }
  });
}

void HyperAllocMonitor::Request(const hv::ResizeRequest& request) {
  HA_CHECK(request.target_bytes <= vm_->config().memory_bytes);
  const uint64_t target_hard =
      (vm_->config().memory_bytes - request.target_bytes) / kHugeSize;
  // Quarantined frames already count against the limit, so the request
  // only has to move the remainder. A poisoned VM refuses resizes: the
  // request finishes before its first slice.
  const uint64_t held = hard_reclaimed_huge_ + quarantined_huge_;
  if (target_hard > held) {
    recovery_.Run(request, /*inflate=*/true,
                  (target_hard - held) * kFramesPerHuge,
                  [this, target_hard, escalation = 0, stalled = 0u]() mutable {
                    return ShrinkSlice(target_hard, escalation, stalled);
                  });
  } else {
    recovery_.Run(request, /*inflate=*/false,
                  (held - target_hard) * kFramesPerHuge,
                  [this, target_hard] { return GrowSlice(target_hard); });
  }
}

hv::Slice HyperAllocMonitor::ShrinkSlice(uint64_t target_huge,
                                         int& escalation,
                                         unsigned& stalled_slices) {
  trace::Span slice(trace::Layer::kMonitor, "monitor.shrink_slice");
  std::vector<HugeId> batch;

  // Linear scan with a persistent per-zone hint, Normal zones before
  // DMA32 (§4.2). The hint makes repeated shrink/grow cycles naturally
  // re-take the previously reclaimed (still evicted) region first — the
  // "reclaim untouched" fast path of §5.3, which needs no unmapping.
  {
    trace::Span reclaim(trace::Layer::kLLFree, "llfree.reclaim_huge");
    for (ZoneView* view : ReclaimOrder()) {
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
  const uint64_t completed = Unmap(batch);

  // Done, or quarantine tripped mid-batch (stop with a partial reclaim).
  if (hard_reclaimed_huge_ + quarantined_huge_ >= target_huge ||
      recovery_.quarantined()) {
    return hv::Slice::kDone;
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
      // Nothing left to reclaim at huge granularity.
      return hv::Slice::kDone;
    }
  } else if (completed == 0 && quarantined_huge_ == quarantined_before) {
    // Every reclaimed frame was rolled back by transient faults: no net
    // progress. A few stalled slices in a row mean the fault rate is too
    // high to ever finish — give up with a partial reclaim instead of
    // spinning (the hint would re-find the same frames forever).
    if (++stalled_slices >= 3) {
      return hv::Slice::kDone;
    }
  } else {
    stalled_slices = 0;
  }
  return hv::Slice::kMore;
}

hv::Slice HyperAllocMonitor::GrowSlice(uint64_t target_huge) {
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
  return hard_reclaimed_huge_ + quarantined_huge_ <= target_huge ||
                 returned == 0
             ? hv::Slice::kDone
             : hv::Slice::kMore;
}

bool HyperAllocMonitor::IsHot(HugeId global_huge) const {
  HugeId local = 0;
  return FindView(global_huge, &local)->zone->llfree->HotnessOf(local) > 0;
}

uint64_t HyperAllocMonitor::AutoReclaimPass() {
  if (recovery_.quarantined()) {
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
  const uint64_t completed = Unmap(batch);
  pass.AddFrames(batch.size() * kFramesPerHuge);
  pass.AddHugeFrames(batch.size() * kFramesPerHuge);
  soft_reclaims_ += completed;
  return completed;
}

}  // namespace hyperalloc::core

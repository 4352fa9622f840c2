#include "src/core/hyperalloc_generic.h"

#include "src/base/check.h"
#include "src/hv/cost_model.h"
#include "src/trace/span.h"

namespace hyperalloc::core {
namespace {

// No injector is armed on this monitor: an unmap cannot fail.
constexpr auto kUnmapFailed = [](HugeId, bool) {
  HA_CHECK(false && "generic monitor: unmap failed");
};

}  // namespace

GenericHyperAllocMonitor::GenericHyperAllocMonitor(guest::GuestVm* vm)
    : MonitorHost(vm, /*in_kernel=*/false),
      aux_(HugesForFrames(vm->total_frames())),
      states_(HugesForFrames(vm->total_frames())) {
  HA_CHECK(vm->config().allocator == guest::AllocatorKind::kBuddy);
  // Boot: nothing is populated, so every frame is soft-reclaimed.
  for (HugeId h = 0; h < aux_.size(); ++h) {
    aux_.SetEvicted(h);
    states_.Set(h, ReclaimState::kSoft);
  }
  vm->AttachAuxBridge(&aux_, [this](HugeId huge) { Install(huge); });
}

uint64_t GenericHyperAllocMonitor::limit_bytes() const {
  return vm_->config().memory_bytes - hard_held_.size() * kHugeSize;
}

void GenericHyperAllocMonitor::Install(HugeId huge) {
  if (suppress_install_) {
    // The monitor itself is allocating the frame out of the guest
    // (balloon-style hard reclaim): no backing memory is needed.
    aux_.ClearEvicted(huge);
    return;
  }
  if (states_.Get(huge) == ReclaimState::kInstalled) {
    aux_.ClearEvicted(huge);  // stale hint (already installed)
    return;
  }
  HA_CHECK(InstallHuge(huge));
  states_.Set(huge, ReclaimState::kInstalled);
  aux_.ClearEvicted(huge);
}

uint64_t GenericHyperAllocMonitor::AutoReclaimPass() {
  // Scan R plus the auxiliary A bits: 2 + 2 bits per huge frame.
  const uint64_t lines = (states_.ByteSize() + aux_.ByteSize() + 63) / 64;
  cpu_.host_user_ns +=
      hv::Charge(sim_, lines * vm_->costs().scan_cache_line_ns);

  std::vector<HugeId> batch;
  for (HugeId h = 0; h < aux_.size(); ++h) {
    if (states_.Get(h) != ReclaimState::kInstalled) {
      continue;
    }
    // One CAS checks A and sets E atomically: a racing guest allocation
    // either loses (and installs) or wins (and we skip the frame).
    if (!aux_.TryReclaim(h, /*hard=*/false)) {
      continue;
    }
    cpu_.host_user_ns += hv::Charge(sim_, vm_->costs().ha_reclaim_state_2m_ns);
    states_.Set(h, ReclaimState::kSoft);
    batch.push_back(h);
  }
  const uint64_t completed = UnmapBatch(batch, kUnmapFailed);
  soft_reclaims_ += completed;
  return completed;
}

void GenericHyperAllocMonitor::Request(const hv::ResizeRequest& request) {
  HA_CHECK(request.target_bytes <= vm_->config().memory_bytes);
  const uint64_t target_hard =
      (vm_->config().memory_bytes - request.target_bytes) / kHugeSize;
  const uint64_t held = hard_held_.size();
  if (target_hard > held) {
    recovery_.Run(request, /*inflate=*/true,
                  (target_hard - held) * kFramesPerHuge,
                  [this, target_hard] { return ShrinkSlice(target_hard); });
  } else {
    recovery_.Run(request, /*inflate=*/false,
                  (held - target_hard) * kFramesPerHuge,
                  [this, target_hard] { return GrowSlice(target_hard); });
  }
}

hv::Slice GenericHyperAllocMonitor::ShrinkSlice(uint64_t target_huge) {
  trace::Span slice(trace::Layer::kMonitor, "monitor.shrink_slice");
  // Guest-mediated hard reclamation (the generalization's weak spot):
  // the monitor cannot mark frames allocated in the private buddy state,
  // so it allocates them *through* the guest, balloon-style, then unmaps
  // with aggregated madvise calls.
  std::vector<HugeId> batch;
  suppress_install_ = true;
  while (hard_held_.size() < target_huge &&
         batch.size() < kHugepagesPerSlice) {
    const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kMovable,
                                         0, /*allow_oom_notify=*/false);
    if (!r.ok()) {
      break;  // nothing left to take at huge granularity
    }
    cpu_.guest_ns += hv::Charge(sim_, vm_->costs().guest_alloc_2m_ns +
                                          vm_->costs().virtqueue_element_ns);
    hard_held_.push_back(*r);
    batch.push_back(FrameToHuge(*r));
    states_.Set(FrameToHuge(*r), ReclaimState::kHard);
    aux_.SetEvicted(FrameToHuge(*r));  // E mirrors !M (Fig. 2)
  }
  suppress_install_ = false;
  if (!batch.empty()) {
    cpu_.host_user_ns += hv::Charge(sim_, vm_->costs().hypercall_ns);
    UnmapBatch(batch, kUnmapFailed);
  }
  return hard_held_.size() >= target_huge || batch.empty()
             ? hv::Slice::kDone
             : hv::Slice::kMore;
}

hv::Slice GenericHyperAllocMonitor::GrowSlice(uint64_t target_huge) {
  trace::Span slice(trace::Layer::kMonitor, "monitor.grow_slice");
  unsigned returned = 0;
  while (hard_held_.size() > target_huge && returned < kHugepagesPerSlice) {
    const FrameId frame = hard_held_.back();
    hard_held_.pop_back();
    const HugeId huge = FrameToHuge(frame);
    // Returning keeps the frame evicted: the guest's next use installs.
    states_.Set(huge, ReclaimState::kSoft);
    aux_.SetEvicted(huge);
    cpu_.host_user_ns += hv::Charge(sim_, vm_->costs().ha_return_state_2m_ns);
    cpu_.guest_ns += hv::Charge(sim_, vm_->costs().guest_free_2m_ns);
    vm_->Free(frame, kHugeOrder, 0);
    ++returned;
  }
  return hard_held_.size() <= target_huge || returned == 0
             ? hv::Slice::kDone
             : hv::Slice::kMore;
}

}  // namespace hyperalloc::core

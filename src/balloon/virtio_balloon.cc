#include "src/balloon/virtio_balloon.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/trace/trace.h"

namespace hyperalloc::balloon {
namespace {

// vCPU the balloon kthread runs on.
constexpr unsigned kDriverCpu = 0;
// Virtqueue batch size (PFNs per hypercall).
constexpr unsigned kVqCapacity = 256;
// Deflate-on-OOM: when the guest is about to run out of memory, the
// balloon releases this many bytes instead.
constexpr uint64_t kDeflateOnOomBytes = 64 * kMiB;

}  // namespace

VirtioBalloon::VirtioBalloon(guest::GuestVm* vm, const BalloonConfig& config)
    : vm_(vm), config_(config), sim_(vm->simulation()),
      auto_(vm->simulation(), config.reporting_delay,
            [this] { return ReportCycle(); }),
      recovery_(vm->simulation(),
                {.fault = "balloon.fault",
                 .retry = "balloon.fault_retry",
                 .rollback = "balloon.fault_rollback",
                 .timeout = "balloon.request_timeout",
                 .backoff_ns = "balloon.fault_backoff_ns"},
                this, &cpu_) {
  HA_CHECK(vm != nullptr);
  // virtio-balloon is not DMA-safe (§2): refuse passthrough configs.
  HA_CHECK(!vm->config().vfio);
  vm->SetOomNotifier([this] {
    if (pages_.empty()) {
      return false;
    }
    // Synchronous emergency deflation of a chunk of the balloon.
    const uint64_t target_frames =
        ballooned_frames_ -
        std::min<uint64_t>(ballooned_frames_, kDeflateOnOomBytes / kFrameSize);
    ++oom_deflations_;
    HA_COUNT("balloon.oom_deflate");
    trace::Span span(trace::Layer::kBackend, "balloon.oom_deflate");
    std::vector<FrameId> base_frames;
    while (ballooned_frames_ > target_frames && !pages_.empty()) {
      const Ballooned b = pages_.back();
      pages_.pop_back();
      span.AddFrames(1ull << b.order);
      if (b.order == kHugeOrder) {
        span.AddHugeFrames(kFramesPerHuge);
      }
      hv::Charge(sim_, b.order == kHugeOrder
                           ? vm_->costs().balloon_deflate_2m_ns
                           : vm_->costs().balloon_deflate_4k_ns);
      if (b.order == 0) {
        base_frames.push_back(b.frame);
      } else {
        vm_->Free(b.frame, b.order, kDriverCpu);
      }
      ballooned_frames_ -= 1ull << b.order;
      HA_COUNT_N("balloon.deflate_frames", 1ull << b.order);
    }
    vm_->FreeBatch(base_frames, 0, kDriverCpu);
    return true;
  });
}

uint64_t VirtioBalloon::ballooned_bytes() const {
  return ballooned_frames_ * kFrameSize;
}

uint64_t VirtioBalloon::limit_bytes() const {
  return vm_->config().memory_bytes - ballooned_bytes();
}

bool VirtioBalloon::TryHypercall() {
  return recovery_.Retry([&] {
    if (const auto kind = fault::Poll(vm_->fault_injector(),
                                      fault::Site::kBalloonHypercall)) {
      HA_COUNT("fault.balloon_hypercall");
      return recovery_.Fault(*kind);
    }
    cpu_.host_user_ns += hv::ChargeTraced(sim_, "balloon.hypercall_ns",
                                          vm_->costs().hypercall_ns);
    HA_COUNT("balloon.hypercall");
    return hv::Attempt::kOk;
  });
}

void VirtioBalloon::Request(const hv::ResizeRequest& request) {
  const uint64_t total = vm_->config().memory_bytes;
  HA_CHECK(request.target_bytes <= total);
  const uint64_t target_frames = (total - request.target_bytes) / kFrameSize;
  if (target_frames > ballooned_frames_) {
    recovery_.Run(
        request, /*inflate=*/true, target_frames - ballooned_frames_,
        [this, target_frames] { return InflateSlice(target_frames); });
  } else {
    recovery_.Run(
        request, /*inflate=*/false, ballooned_frames_ - target_frames,
        [this, target_frames] { return DeflateSlice(target_frames); });
  }
}

hv::Slice VirtioBalloon::InflateSlice(uint64_t target_frames) {
  trace::Span slice(trace::Layer::kBackend, "balloon.inflate_slice");
  const sim::Time t0 = sim_->now();
  std::vector<Ballooned> batch;
  const sim::Time guest_start = sim_->now();

  // Guest driver: allocate pages and queue their PFNs (one virtqueue
  // batch per slice).
  {
    trace::Span guest(trace::Layer::kGuest, "balloon.guest_alloc");
    while (batch.size() < kVqCapacity &&
           ballooned_frames_ < target_frames) {
      if (config_.huge &&
          target_frames - ballooned_frames_ >= kFramesPerHuge) {
        const Result<FrameId> r = vm_->Alloc(kHugeOrder, AllocType::kMovable,
                                             kDriverCpu,
                                             /*allow_oom_notify=*/false);
        if (r.ok()) {
          hv::Charge(sim_, vm_->costs().guest_alloc_2m_ns);
          hv::Charge(sim_, vm_->costs().virtqueue_element_ns);
          batch.push_back({*r, kHugeOrder});
          ballooned_frames_ += kFramesPerHuge;
          HA_COUNT_N("balloon.inflate_frames", kFramesPerHuge);
          guest.AddFrames(kFramesPerHuge);
          guest.AddHugeFrames(kFramesPerHuge);
          continue;
        }
        // Fragmentation fallback (Hu et al. split path): 4 KiB pages via
        // the batched train below.
      }
      // Order-0 train (sub-huge tail or fragmentation fallback): one
      // AllocBatch fills the rest of the virtqueue via word-at-a-time
      // claims instead of per-frame Get transactions. Costs charge at
      // batch granularity (n per-frame costs, identical virtual time).
      const uint64_t want =
          std::min<uint64_t>(kVqCapacity - batch.size(),
                             target_frames - ballooned_frames_);
      std::vector<FrameId> frames;
      const unsigned got = vm_->AllocBatch(
          0, static_cast<unsigned>(want), AllocType::kMovable,
          kDriverCpu, &frames, /*allow_oom_notify=*/false);
      if (got == 0) {
        break;  // guest out of reclaimable memory; stop inflating
      }
      hv::Charge(sim_, got * (vm_->costs().guest_alloc_4k_ns +
                              vm_->costs().virtqueue_element_ns));
      for (const FrameId f : frames) {
        batch.push_back({f, 0});
      }
      ballooned_frames_ += got;
      HA_COUNT_N("balloon.inflate_frames", got);
      guest.AddFrames(got);
      if (got < want) {
        break;  // allocator ran dry mid-train
      }
    }
  }
  cpu_.guest_ns += sim_->now() - guest_start;

  if (batch.empty()) {
    return hv::Slice::kDone;
  }

  // One hypercall delivers the batch; QEMU discards each entry.
  if (!TryHypercall()) {
    // Hypercall retries exhausted: the guest driver frees the batch back
    // (the normal deflate path) and the request finishes partial — the
    // balloon holds exactly the pages of the prior slices. Order-0
    // entries free in one batched train.
    std::vector<FrameId> base_frames;
    for (const Ballooned& b : batch) {
      cpu_.guest_ns += hv::Charge(sim_, b.order == kHugeOrder
                                            ? vm_->costs().guest_free_2m_ns
                                            : vm_->costs().guest_free_4k_ns);
      if (b.order == 0) {
        base_frames.push_back(b.frame);
      } else {
        vm_->Free(b.frame, b.order, kDriverCpu);
      }
      ballooned_frames_ -= 1ull << b.order;
    }
    vm_->FreeBatch(base_frames, 0, kDriverCpu);
    recovery_.Rollback();
    vm_->sink().OnCpuSteal(kDriverCpu, t0, sim_->now(), 1.0);
    return hv::Slice::kDone;
  }
  HostDiscard(batch);
  pages_.insert(pages_.end(), batch.begin(), batch.end());

  // The balloon kthread monopolized its vCPU for the whole slice.
  vm_->sink().OnCpuSteal(kDriverCpu, t0, sim_->now(), 1.0);

  return ballooned_frames_ < target_frames ? hv::Slice::kMore
                                           : hv::Slice::kDone;
}

void VirtioBalloon::HostDiscard(const std::vector<Ballooned>& batch) {
  // The host-side half of a batch is one EPT-layer span: per-entry
  // madvise syscalls plus the unmap of whatever was still mapped.
  trace::Span span(trace::Layer::kEpt, "balloon.host_discard");
  const sim::Time t0 = sim_->now();
  uint64_t sys_ns = 0;
  uint64_t shootdown_allcpu_ns = 0;
  for (const Ballooned& b : batch) {
    const uint64_t frames = 1ull << b.order;
    span.AddFrames(frames);
    if (b.order == kHugeOrder) {
      span.AddHugeFrames(frames);
    }
    const uint64_t mapped = vm_->ept().CountMapped(b.frame, frames);
    // QEMU issues one madvise(DONTNEED) per entry, mapped or not.
    sys_ns += vm_->costs().madvise_syscall_ns;
    ++madvise_calls_;
    HA_COUNT("balloon.madvise");
    if (mapped > 0) {
      if (recovery_.Retry([&] {
            return vm_->ept().Unmap(b.frame, frames) != hv::Ept::kFaultInjected
                       ? hv::Attempt::kOk
                       : recovery_.Fault(vm_->ept().last_injected_kind());
          })) {
        if (b.order == kHugeOrder) {
          sys_ns += vm_->costs().madvise_per_2m_ns +
                    vm_->costs().tlb_shootdown_ns;
          shootdown_allcpu_ns += vm_->costs().shootdown_allcpu_2m_ns;
        } else {
          sys_ns += vm_->costs().madvise_per_4k_ns;
          shootdown_allcpu_ns += vm_->costs().shootdown_allcpu_4k_ns;
        }
      }
      // else: the madvise never took effect — the entry stays ballooned
      // but host-backed (no host memory is freed for it). Nothing to
      // roll back: deflating hands the still-mapped frame straight back.
    }
  }
  cpu_.host_sys_ns += hv::Charge(sim_, sys_ns);
  const sim::Time t1 = sim_->now();
  if (shootdown_allcpu_ns > 0 && t1 > t0) {
    vm_->sink().OnAllCpusSteal(
        t0, t1,
        static_cast<double>(shootdown_allcpu_ns) /
            static_cast<double>(t1 - t0));
  }
}

hv::Slice VirtioBalloon::DeflateSlice(uint64_t target_frames) {
  // Device processing and guest frees alternate per element; rather than
  // a span per element, two slice-length spans take the charges of their
  // layer (ChargeSpan targets them explicitly).
  trace::Span slice(trace::Layer::kBackend, "balloon.deflate_slice");
  trace::Span guest(trace::Layer::kGuest, "balloon.guest_free");
  const sim::Time t0 = sim_->now();
  unsigned elems = 0;
  // Order-0 frees accumulate into one end-of-slice FreeBatch (one CAS
  // per bit-field word); charges and events stay per element, so the
  // virtual-time totals and span attribution are unchanged.
  std::vector<FrameId> base_frames;
  while (elems < kVqCapacity && ballooned_frames_ > target_frames &&
         !pages_.empty()) {
    const Ballooned b = pages_.back();
    pages_.pop_back();
    // Per-element deflate processing (QEMU side) ...
    const uint64_t deflate_ns = b.order == kHugeOrder
                                    ? vm_->costs().balloon_deflate_2m_ns
                                    : vm_->costs().balloon_deflate_4k_ns;
    cpu_.host_user_ns += hv::ChargeSpan(sim_, &slice, deflate_ns);
    // ... and the guest returning the page to its allocator. The memory
    // itself is repopulated lazily on the next EPT fault.
    const uint64_t free_ns = b.order == kHugeOrder
                                 ? vm_->costs().guest_free_2m_ns
                                 : vm_->costs().guest_free_4k_ns;
    cpu_.guest_ns += hv::ChargeSpan(sim_, &guest, free_ns);
    if (b.order == 0) {
      base_frames.push_back(b.frame);
    } else {
      vm_->Free(b.frame, b.order, kDriverCpu);
    }
    ballooned_frames_ -= 1ull << b.order;
    guest.AddFrames(1ull << b.order);
    if (b.order == kHugeOrder) {
      guest.AddHugeFrames(kFramesPerHuge);
    }
    HA_COUNT_N("balloon.deflate_frames", 1ull << b.order);
    ++elems;
  }
  vm_->FreeBatch(base_frames, 0, kDriverCpu);
  vm_->sink().OnCpuSteal(kDriverCpu, t0, sim_->now(), 1.0);

  return ballooned_frames_ <= target_frames || pages_.empty()
             ? hv::Slice::kDone
             : hv::Slice::kMore;
}

sim::Time VirtioBalloon::ReportCycle() {
  [[maybe_unused]] trace::ScopedRoot report_root;
  trace::Span span(trace::Layer::kBackend, "balloon.report_cycle");
  const sim::Time t0 = sim_->now();
  const unsigned order = config_.reporting_order;
  const uint64_t block_frames = 1ull << order;

  // Pull one batch (REPORTING_CAPACITY blocks) from the buddy free lists.
  std::vector<Ballooned> batch;
  std::vector<guest::Zone*> zone_of;
  for (guest::Zone& zone : vm_->zones()) {
    if (zone.buddy == nullptr) {
      continue;  // free-page reporting is a buddy mechanism
    }
    while (batch.size() < config_.reporting_capacity) {
      const std::optional<FrameId> local = zone.buddy->PopUnreported(order);
      if (!local.has_value()) {
        break;
      }
      cpu_.guest_ns += hv::Charge(sim_, vm_->costs().guest_alloc_4k_ns +
                                            vm_->costs().virtqueue_element_ns);
      batch.push_back({zone.start + *local, order});
      zone_of.push_back(&zone);
      span.AddFrames(block_frames);
      if (order == kHugeOrder) {
        span.AddHugeFrames(block_frames);
      }
    }
    if (batch.size() >= config_.reporting_capacity) {
      break;
    }
  }

  if (batch.empty()) {
    // Lists exhausted of unreported blocks: wait for the next cycle.
    return config_.reporting_delay;
  }

  if (!TryHypercall()) {
    // Reporting hypercall failed: free the blocks back *unreported* so
    // the next cycle naturally retries them.
    for (size_t i = 0; i < batch.size(); ++i) {
      guest::Zone& zone = *zone_of[i];
      const auto err = zone.buddy->Free(kDriverCpu,
                                        batch[i].frame - zone.start, order);
      HA_CHECK(!err.has_value());
      cpu_.guest_ns += hv::Charge(sim_, vm_->costs().guest_free_4k_ns);
    }
    recovery_.Rollback();
    vm_->sink().OnCpuSteal(kDriverCpu, t0, sim_->now(), 1.0);
    return config_.reporting_delay;
  }
  ++hypercalls_;
  HostDiscard(batch);

  // Hand the blocks back to the allocator, remembering they are reported.
  for (size_t i = 0; i < batch.size(); ++i) {
    guest::Zone& zone = *zone_of[i];
    const FrameId local = batch[i].frame - zone.start;
    zone.buddy->MarkReported(local, order);
    const auto err = zone.buddy->Free(kDriverCpu, local, order);
    HA_CHECK(!err.has_value());
    cpu_.guest_ns += hv::Charge(sim_, vm_->costs().guest_free_4k_ns);
    reported_bytes_ += block_frames * kFrameSize;
  }
  vm_->sink().OnCpuSteal(kDriverCpu, t0, sim_->now(), 1.0);

  // Keep draining until no unreported blocks remain, yielding between
  // batches; then sleep for the configured delay.
  return 0;
}

}  // namespace hyperalloc::balloon

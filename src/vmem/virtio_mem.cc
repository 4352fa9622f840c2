#include "src/vmem/virtio_mem.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/hv/cost_model.h"
#include "src/trace/span.h"

namespace hyperalloc::vmem {
namespace {

constexpr unsigned kDriverCpu = 0;
// Blocks processed per event-loop slice.
constexpr unsigned kBlocksPerSlice = 16;

}  // namespace

VirtioMem::VirtioMem(guest::GuestVm* vm)
    : vm_(vm), sim_(vm->simulation()),
      auto_(vm->simulation(), kAutoPeriod,
            [this] { return AutoTick(); }),
      recovery_(vm->simulation(),
                {.fault = "vmem.fault",
                 .retry = "vmem.fault_retry",
                 .rollback = "vmem.fault_rollback",
                 .timeout = "vmem.request_timeout",
                 .backoff_ns = "vmem.fault_backoff_ns"},
                this, &cpu_) {
  HA_CHECK(vm != nullptr);
  guest::Zone& zone = movable_zone();
  HA_CHECK(zone.buddy != nullptr);
  num_blocks_ = zone.frames / kFramesPerHuge;
  plugged_.assign(num_blocks_, true);  // boot with everything plugged
  plugged_blocks_ = num_blocks_;

  if (vm_->config().vfio) {
    // DMA safety by pre-population: all guest memory (static zones and
    // plugged blocks) is populated and pinned at boot. No time is charged
    // — this is part of VM start-up, outside every benchmark window.
    // Fault injectors must be armed AFTER construction: boot-time
    // pre-population is not a recoverable boundary.
    const uint64_t mapped = vm_->ept().Map(0, vm_->total_frames());
    HA_CHECK(mapped != hv::Ept::kNoHostMemory &&
             mapped != hv::Ept::kFaultInjected);
    vm_->iommu()->PinRange(0, HugesForFrames(vm_->total_frames()));
  }
}

bool VirtioMem::PollSite(fault::Site site) {
  return recovery_.Retry([&] {
    const auto kind = fault::Poll(vm_->fault_injector(), site);
    if (!kind.has_value()) {
      return hv::Attempt::kOk;
    }
    HA_COUNT("fault.vmem_hypercall");
    return recovery_.Fault(*kind);
  });
}

guest::Zone& VirtioMem::movable_zone() {
  for (guest::Zone& zone : vm_->zones()) {
    if (zone.kind == guest::ZoneKind::kMovable) {
      return zone;
    }
  }
  HA_CHECK(false && "virtio-mem requires a Movable zone");
  __builtin_unreachable();
}

FrameId VirtioMem::BlockFirstFrame(uint64_t block) const {
  return const_cast<VirtioMem*>(this)->movable_zone().start +
         block * kFramesPerHuge;
}

uint64_t VirtioMem::limit_bytes() const {
  const uint64_t unplugged = num_blocks_ - plugged_blocks_;
  return vm_->config().memory_bytes - unplugged * kHugeSize;
}

void VirtioMem::Request(const hv::ResizeRequest& request) {
  const uint64_t static_bytes =
      vm_->config().memory_bytes - num_blocks_ * kHugeSize;
  const uint64_t want_plugged_bytes =
      request.target_bytes > static_bytes
          ? request.target_bytes - static_bytes
          : 0;
  const uint64_t target_blocks =
      std::min<uint64_t>(num_blocks_, want_plugged_bytes / kHugeSize);
  // Host-side naming: unplugging guest memory inflates the host's pool.
  if (target_blocks < plugged_blocks_) {
    recovery_.Run(
        request, /*inflate=*/true,
        (plugged_blocks_ - target_blocks) * kFramesPerHuge,
        [this, target_blocks] { return UnplugSlice(target_blocks); });
  } else {
    recovery_.Run(
        request, /*inflate=*/false,
        (target_blocks - plugged_blocks_) * kFramesPerHuge,
        [this, target_blocks] { return PlugSlice(target_blocks); });
  }
}

bool VirtioMem::UnplugOneBlock() {
  // Decreasing address order (§5.4).
  uint64_t block = num_blocks_;
  for (uint64_t b = num_blocks_; b-- > 0;) {
    if (plugged_[b]) {
      block = b;
      break;
    }
  }
  HA_CHECK(block != num_blocks_);

  guest::Zone& zone = movable_zone();
  const FrameId global_first = BlockFirstFrame(block);
  const FrameId local_first = global_first - zone.start;

  // Offline the block: isolate its free frames, migrate the used ones.
  // Migration and purging advance the clock internally, so the guest span
  // is charged the measured elapsed time rather than via hv::Charge.
  const sim::Time guest_start = sim_->now();
  {
    trace::Span offline(trace::Layer::kGuest, "vmem.offline_block");
    vm_->PurgeAllocatorCaches();  // PCP pages cannot be isolated
    zone.buddy->ClaimFreeInRange(local_first, kFramesPerHuge);
    if (!vm_->MigrateRange(global_first, kFramesPerHuge, kDriverCpu)) {
      // Migration failed (no free destination or pinned kernel memory):
      // the block stays online; release everything we isolated.
      vm_->ReleaseIsolatedRange(global_first, kFramesPerHuge);
      ++unpluggable_failures_;
      cpu_.guest_ns += sim_->now() - guest_start;
      offline.AddCharge(sim_->now() - guest_start);
      return false;
    }
    // Hot-unplug bookkeeping (memmap, notifier chains, resource tree).
    sim_->AdvanceClock(vm_->costs().vmem_unplug_block_ns);
    cpu_.guest_ns += sim_->now() - guest_start;
    offline.AddCharge(sim_->now() - guest_start);
    offline.AddFrames(kFramesPerHuge);
    offline.AddHugeFrames(kFramesPerHuge);
  }

  // Notify the device (one request per block) and discard host memory.
  // An unrecoverable hypercall fault rolls the offline back (the block
  // simply stays plugged) and stops the slice.
  if (!PollSite(fault::Site::kVmemUnplug)) {
    vm_->ReleaseIsolatedRange(global_first, kFramesPerHuge);
    recovery_.Rollback();
    return false;
  }
  {
    trace::Span hypercall(trace::Layer::kBackend, "vmem.unplug_hypercall");
    cpu_.host_user_ns += hv::Charge(sim_, vm_->costs().hypercall_ns);
  }
  if (vm_->config().vfio) {
    // VFIO: unpin + IOTLB flush, even for untouched memory (§5.3). The
    // unpin comes BEFORE the unmap so a failed unpin can still roll the
    // whole block back intact (pinned, mapped, online) — the reverse
    // order would strand an unmapped-but-pinned block, which is exactly
    // the DMA-unsafe state the install protocol exists to prevent.
    if (!recovery_.Retry([&] {
          const uint64_t injected = vm_->iommu()->injected_faults();
          // Unpin fails without an injected fault only when the block was
          // not pinned: nothing to undo.
          return vm_->iommu()->Unpin(FrameToHuge(global_first)) ||
                         vm_->iommu()->injected_faults() == injected
                     ? hv::Attempt::kOk
                     : recovery_.Fault(vm_->iommu()->last_injected_kind());
        })) {
      vm_->ReleaseIsolatedRange(global_first, kFramesPerHuge);
      recovery_.Rollback();
      return false;
    }
    trace::Span unpin(trace::Layer::kIommu, "iommu.unpin_range");
    unpin.AddFrames(kFramesPerHuge);
    unpin.AddHugeFrames(kFramesPerHuge);
    cpu_.host_sys_ns += hv::Charge(
        sim_, vm_->costs().iommu_unmap_2m_ns + vm_->costs().iotlb_flush_ns);
  }
  const uint64_t mapped = vm_->ept().CountMapped(global_first,
                                                 kFramesPerHuge);
  if (mapped > 0) {
    trace::Span unmap(trace::Layer::kEpt, "ept.unmap_run");
    const uint64_t ept_ns = vm_->costs().madvise_syscall_ns +
                            vm_->costs().tlb_shootdown_ns +
                            vm_->costs().madvise_per_2m_ns;
    if (recovery_.Retry([&] {
          return vm_->ept().Unmap(global_first, kFramesPerHuge) !=
                         hv::Ept::kFaultInjected
                     ? hv::Attempt::kOk
                     : recovery_.Fault(vm_->ept().last_injected_kind());
        })) {
      const sim::Time t = sim_->now();
      vm_->sink().OnAllCpusSteal(
          t, t + ept_ns,
          static_cast<double>(vm_->costs().shootdown_allcpu_2m_ns) /
              static_cast<double>(ept_ns));
      unmap.AddFrames(kFramesPerHuge);
      unmap.AddHugeFrames(kFramesPerHuge);
      cpu_.host_sys_ns += hv::Charge(sim_, ept_ns);
    } else {
      // The guest already gave the block up and (under VFIO) the pin is
      // gone, so finishing the unplug stays legal — but the host backing
      // could not be discarded. It stays allocated ("leaked") until the
      // block is replugged, which re-uses the mapping as-is.
      ++leaked_backing_blocks_;
      HA_COUNT("vmem.leaked_backing");
    }
  }

  plugged_[block] = false;
  --plugged_blocks_;
  return true;
}

hv::Slice VirtioMem::UnplugSlice(uint64_t target_blocks) {
  trace::Span slice(trace::Layer::kBackend, "vmem.unplug_slice");
  const sim::Time t0 = sim_->now();
  for (unsigned i = 0;
       i < kBlocksPerSlice && plugged_blocks_ > target_blocks;
       ++i) {
    if (!UnplugOneBlock()) {
      // Cannot evacuate further blocks right now: stop (partial success,
      // like the real driver's "requested size not reached").
      vm_->sink().OnCpuSteal(kDriverCpu, t0, sim_->now(), 1.0);
      return hv::Slice::kDone;
    }
  }
  vm_->sink().OnCpuSteal(kDriverCpu, t0, sim_->now(), 1.0);
  return plugged_blocks_ <= target_blocks ? hv::Slice::kDone
                                          : hv::Slice::kMore;
}

bool VirtioMem::PlugOneBlock(uint64_t block) {
  guest::Zone& zone = movable_zone();
  const FrameId global_first = BlockFirstFrame(block);
  const FrameId local_first = global_first - zone.start;

  // One request per plugged block. A failed hypercall aborts cleanly:
  // nothing was onlined yet, the block just stays unplugged.
  if (!PollSite(fault::Site::kVmemPlug)) {
    return false;
  }
  {
    trace::Span hypercall(trace::Layer::kBackend, "vmem.plug_hypercall");
    cpu_.host_user_ns += hv::Charge(sim_, vm_->costs().hypercall_ns);
  }
  if (vm_->config().vfio) {
    // Pre-populate and pin for DMA safety — the expensive part (§5.3:
    // "virtio-mem with VFIO is 21x slower ... because it has to
    // pre-populate the memory"). This runs BEFORE the block is onlined:
    // if populate or pin fails, the guest never sees the memory and the
    // plug aborts with no state to undo.
    const sim::Time t0 = sim_->now();
    bool populated = false;
    {
      trace::Span populate(trace::Layer::kEpt, "ept.populate");
      populate.AddFrames(kFramesPerHuge);
      populate.AddHugeFrames(kFramesPerHuge);
      populated = recovery_.Retry([&] {
        const uint64_t injected = vm_->ept().injected_faults();
        if (vm_->PopulateFrames(global_first, kFramesPerHuge)) {
          return hv::Attempt::kOk;
        }
        // An injected map fault or host exhaustion; only an injected
        // fault can be permanent.
        return recovery_.Fault(vm_->ept().injected_faults() > injected
                                   ? vm_->ept().last_injected_kind()
                                   : fault::Kind::kTransient);
      });
      if (populated) {
        cpu_.host_sys_ns +=
            hv::Charge(sim_, kFramesPerHuge * vm_->costs().populate_4k_ns);
      }
    }
    if (!populated) {
      return false;
    }
    bool pinned = false;
    {
      trace::Span pin(trace::Layer::kIommu, "iommu.pin");
      pin.AddFrames(kFramesPerHuge);
      pin.AddHugeFrames(kFramesPerHuge);
      pinned = recovery_.Retry([&] {
        vm_->iommu()->Pin(FrameToHuge(global_first));
        return vm_->iommu()->IsPinned(FrameToHuge(global_first))
                   ? hv::Attempt::kOk
                   : recovery_.Fault(vm_->iommu()->last_injected_kind());
      });
      if (pinned) {
        cpu_.host_sys_ns += hv::Charge(sim_, vm_->costs().iommu_map_2m_ns);
      }
    }
    if (!pinned) {
      // Mapped but unpinned and never onlined: legal (the backing is
      // reused when the plug is retried), just not DMA-safe to expose —
      // so it is not exposed.
      return false;
    }
    if (sim_->now() > t0) {
      vm_->sink().OnBandwidth(t0, sim_->now(),
                              static_cast<double>(kHugeSize) /
                                  static_cast<double>(sim_->now() - t0));
    }
  }
  // Guest onlining (memmap init, buddy release) — only after the block
  // is fully DMA-safe.
  {
    trace::Span online(trace::Layer::kGuest, "vmem.online_block");
    online.AddFrames(kFramesPerHuge);
    online.AddHugeFrames(kFramesPerHuge);
    cpu_.guest_ns += hv::Charge(sim_, vm_->costs().vmem_plug_block_ns);
  }
  zone.buddy->ReleaseRange(local_first, kFramesPerHuge);

  plugged_[block] = true;
  ++plugged_blocks_;
  return true;
}

hv::Slice VirtioMem::PlugSlice(uint64_t target_blocks) {
  trace::Span slice(trace::Layer::kBackend, "vmem.plug_slice");
  const sim::Time t0 = sim_->now();
  unsigned plugged_now = 0;
  for (uint64_t b = 0; b < num_blocks_ && plugged_blocks_ < target_blocks &&
                       plugged_now < kBlocksPerSlice;
       ++b) {
    if (!plugged_[b]) {
      if (!PlugOneBlock(b)) {
        // Unrecoverable fault: stop with a partial plug (the real
        // driver's "requested size not reached").
        vm_->sink().OnCpuSteal(kDriverCpu, t0, sim_->now(), 1.0);
        return hv::Slice::kDone;
      }
      ++plugged_now;
    }
  }
  vm_->sink().OnCpuSteal(kDriverCpu, t0, sim_->now(), 1.0);
  return plugged_blocks_ >= target_blocks || plugged_now == 0
             ? hv::Slice::kDone
             : hv::Slice::kMore;
}

sim::Time VirtioMem::AutoTick() {
  if (!recovery_.busy()) {
    const uint64_t free_bytes = vm_->FreeFrames() * kFrameSize;
    const uint64_t free_huge_bytes = vm_->FreeHugeFrames() * kHugeSize;
    if (free_bytes < kAutoLowBytes && plugged_blocks_ < num_blocks_) {
      Request({.target_bytes = std::min(limit_bytes() + kAutoGranularity,
                                        vm_->config().memory_bytes),
               .done = {}});
    } else if (free_huge_bytes > kAutoHighBytes + kAutoGranularity) {
      Request({.target_bytes = limit_bytes() - kAutoGranularity,
               .done = {}});
    }
  }
  return kAutoPeriod;
}

}  // namespace hyperalloc::vmem

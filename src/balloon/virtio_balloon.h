// virtio-balloon (Linux/QEMU memory ballooning) and the huge-page variant
// of Hu et al. [24], including the automatic *free-page reporting* mode.
//
// Manual mode (inflate/deflate):
//  * Inflate: the guest balloon driver allocates guest frames (inducing
//    memory pressure: page-cache eviction and allocator-cache purging),
//    sends the PFNs through a virtqueue (aggregated, up to 256 per
//    hypercall), and QEMU madvise(DONTNEED)s them one by one — the
//    per-page host cost that makes 4 KiB ballooning slow (§5.3).
//  * Deflate: PFNs are returned to the guest allocator one by one; the
//    memory is repopulated lazily on the next EPT fault.
//
// Auto mode (free-page reporting): every REPORTING_DELAY, up to
// REPORTING_CAPACITY free blocks of REPORTING_ORDER are pulled from the
// buddy free lists, reported, madvised away, and handed back to the
// allocator *still logically free* (they repopulate on fault when
// reallocated). Exactly the knobs the paper sweeps in Fig. 7.
//
// Not DMA-safe: reclaimed frames stay allocatable without any install
// step, so a passthrough device can be pointed at an unbacked frame (§2).
#pragma once

#include <cstdint>
#include <vector>

#include "src/guest/guest_vm.h"
#include "src/hv/auto_timer.h"
#include "src/hv/deflator.h"
#include "src/hv/recovery.h"
#include "src/sim/simulation.h"
#include "src/trace/span.h"

namespace hyperalloc::balloon {

struct BalloonConfig {
  // false: classic 4 KiB virtio-balloon; true: 2 MiB huge-page ballooning.
  bool huge = false;
  // Free-page reporting knobs (paper Fig. 7: o / d / c).
  unsigned reporting_order = 0;
  sim::Time reporting_delay = 2 * sim::kSec;
  unsigned reporting_capacity = 32;
};

class VirtioBalloon : public hv::Deflator {
 public:
  VirtioBalloon(guest::GuestVm* vm, const BalloonConfig& config);

  hv::DeflatorCaps caps() const override {
    return {.name = config_.huge ? "virtio-balloon-huge" : "virtio-balloon",
            .dma_safe = false,
            .supports_auto = true,
            .granularity_bytes = config_.huge ? kHugeSize : kFrameSize};
  }

  void Request(const hv::ResizeRequest& request) override;
  uint64_t limit_bytes() const override;
  bool busy() const override { return recovery_.busy(); }

  void StartAuto() override { auto_.Start(); }
  void StopAuto() override { auto_.Stop(); }

  const hv::CpuAccounting& cpu() const override { return cpu_; }

  uint64_t ballooned_bytes() const;
  uint64_t oom_deflations() const { return oom_deflations_; }
  uint64_t total_hypercalls() const { return hypercalls_; }
  uint64_t total_madvise_calls() const { return madvise_calls_; }
  uint64_t reported_bytes_total() const { return reported_bytes_; }

 private:
  struct Ballooned {
    FrameId frame;
    unsigned order;
  };

  hv::Slice InflateSlice(uint64_t target_frames);
  hv::Slice DeflateSlice(uint64_t target_frames);
  // One free-page reporting cycle; returns the delay to the next one.
  sim::Time ReportCycle();

  // Host-side processing of one batch of reclaimed blocks.
  void HostDiscard(const std::vector<Ballooned>& batch);

  // Issues the balloon hypercall (charge + counter), retrying injected
  // transient faults with backoff. Returns false when retries are
  // exhausted or the fault is permanent — the caller rolls its batch
  // back.
  bool TryHypercall();

  guest::GuestVm* vm_;
  BalloonConfig config_;
  sim::Simulation* sim_;
  hv::AutoTimer auto_;  // free-page reporting

  std::vector<Ballooned> pages_;  // current balloon contents
  uint64_t ballooned_frames_ = 0;

  hv::CpuAccounting cpu_;
  hv::Recovery recovery_;
  uint64_t oom_deflations_ = 0;
  uint64_t hypercalls_ = 0;
  uint64_t madvise_calls_ = 0;
  uint64_t reported_bytes_ = 0;
};

}  // namespace hyperalloc::balloon

// virtio-mem: paravirtualized memory hot(un)plug (Hildenbrand & Schulz
// [23]).
//
// The hotpluggable memory lives in the guest's Movable zone, managed as
// 2 MiB blocks. Plugging onlines a block (hypercall per block — "virtio-
// mem makes hypercalls for every plugged 2 MiB block", §5.3); unplugging
// offlines blocks in decreasing address order, migrating any used
// subblocks first ("requiring the guest OS to migrate used subblocks to
// other memory locations", §5.4).
//
// DMA safety comes from pre-population: with a VFIO device attached,
// every plugged block is fully populated and pinned up front, and every
// unplug must also unmap the IOMMU and flush the IOTLB — even for memory
// that was never touched (§5.3).
//
// virtio-mem itself has no automatic reclamation; the paper *simulates*
// one by tracking the guest's free huge pages and (un)plugging at 1 GiB
// granularity every second (§5.5) — implemented here the same way.
#pragma once

#include <cstdint>
#include <vector>

#include "src/fault/fault.h"
#include "src/guest/guest_vm.h"
#include "src/hv/auto_timer.h"
#include "src/hv/deflator.h"
#include "src/hv/recovery.h"
#include "src/sim/simulation.h"
#include "src/trace/span.h"

namespace hyperalloc::vmem {

// Simulated auto mode (hand-tuned like the paper's, §5.5): its period
// and resize step.
inline constexpr sim::Time kAutoPeriod = 1 * sim::kSec;
inline constexpr uint64_t kAutoGranularity = 1 * kGiB;
// Plug when total free memory falls below this ...
inline constexpr uint64_t kAutoLowBytes = 768 * kMiB;
// ... unplug (1 GiB) when huge-page-backed free memory exceeds this plus
// one step.
inline constexpr uint64_t kAutoHighBytes = 1792 * kMiB;

class VirtioMem : public hv::Deflator {
 public:
  // The guest must have a Movable zone (config().movable_bytes > 0) using
  // the buddy allocator. All hotpluggable memory starts plugged.
  explicit VirtioMem(guest::GuestVm* vm);

  hv::DeflatorCaps caps() const override {
    return {.name = "virtio-mem",
            .dma_safe = true,
            .supports_auto = false,  // simulated only
            .granularity_bytes = kHugeSize};
  }

  void Request(const hv::ResizeRequest& request) override;
  uint64_t limit_bytes() const override;
  bool busy() const override { return recovery_.busy(); }

  // The paper's simulated auto-resizer (not part of upstream virtio-mem).
  void StartAuto() override { auto_.Start(); }
  void StopAuto() override { auto_.Stop(); }

  const hv::CpuAccounting& cpu() const override { return cpu_; }

  uint64_t plugged_blocks() const { return plugged_blocks_; }
  uint64_t unpluggable_failures() const { return unpluggable_failures_; }

  // Blocks unplugged whose EPT unmap never succeeded: the guest gave the
  // block up, but its host backing stays allocated until it is replugged.
  uint64_t leaked_backing_blocks() const { return leaked_backing_blocks_; }

 private:
  guest::Zone& movable_zone();

  hv::Slice PlugSlice(uint64_t target_blocks);
  hv::Slice UnplugSlice(uint64_t target_blocks);
  bool UnplugOneBlock();
  // Returns false when the plug aborted on an unrecoverable fault — the
  // block stays unplugged and the slice finishes partial.
  bool PlugOneBlock(uint64_t block);
  // One auto-resizer step; returns the delay to the next one.
  sim::Time AutoTick();

  // Polls a hypercall fault site with bounded retries; returns false on
  // retry exhaustion or a permanent fault.
  bool PollSite(fault::Site site);

  FrameId BlockFirstFrame(uint64_t block) const;

  guest::GuestVm* vm_;
  sim::Simulation* sim_;
  hv::AutoTimer auto_;
  uint64_t num_blocks_;
  std::vector<bool> plugged_;
  uint64_t plugged_blocks_ = 0;

  hv::CpuAccounting cpu_;
  hv::Recovery recovery_;
  uint64_t unpluggable_failures_ = 0;
  uint64_t leaked_backing_blocks_ = 0;
};

}  // namespace hyperalloc::vmem

// Host-level swapping — the hypervisor's last resort when the guests'
// accumulated memory demand exceeds physical memory (paper §6: "Here,
// hypervisors usually fallback to swapping").
//
// The SwapManager watches the host pool on behalf of its registered VMs.
// When a population request cannot be satisfied, it transparently swaps
// out host-backed pages of the least-recently-resized victim VM (EPT
// unmap + swap-write cost); the guest notices nothing until it touches a
// swapped page, which then pays a swap-in surcharge on top of the normal
// fault. This is precisely the "viscous" behaviour (§8) that HyperAlloc's
// cooperative reclamation avoids — compare bench/bench_overcommit.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/guest/guest_vm.h"
#include "src/hv/host_memory.h"
#include "src/sim/simulation.h"

namespace hyperalloc::hv {

struct SwapConfig {
  uint64_t capacity_bytes = 64ull * kGiB;
};

class SwapManager {
 public:
  SwapManager(sim::Simulation* sim, HostMemory* host,
              const SwapConfig& config = {});

  // Registers a VM: installs the host-pressure handler and the
  // fault-surcharge hook. Must be called before the VM populates memory.
  // `is_hot` (optional) is the §6 hotness oracle — typically backed by
  // the HyperAlloc monitor's shared hotness hints; hot huge frames are
  // only swapped when nothing cold is left.
  void Register(guest::GuestVm* vm,
                std::function<bool(HugeId)> is_hot = nullptr);

  uint64_t swapped_out_frames() const { return swapped_out_; }
  uint64_t swapped_in_frames() const { return swapped_in_; }
  uint64_t swap_used_frames() const { return swap_used_; }

 private:
  struct VmState {
    guest::GuestVm* vm;
    std::function<bool(HugeId)> is_hot;  // §6 hotness oracle (optional)
    std::vector<uint64_t> swapped;  // bitset per guest frame
    FrameId clock_hand = 0;         // victim scan position
  };

  // Frees at least `frames` host frames by swapping out mapped guest
  // memory; other VMs are victimized before the requester (the VM that
  // is currently faulting), clock-style within each.
  bool MakeRoom(VmState* requester, uint64_t frames);

  // Swap-in accounting for a VM's fault range; returns the surcharge.
  uint64_t OnFault(VmState* state, FrameId first, uint64_t count);

  sim::Simulation* sim_;
  HostMemory* host_;
  SwapConfig config_;
  std::vector<std::unique_ptr<VmState>> vms_;
  size_t next_victim_ = 0;
  uint64_t swapped_out_ = 0;
  uint64_t swapped_in_ = 0;
  uint64_t swap_used_ = 0;
};

}  // namespace hyperalloc::hv

#include "src/hv/swap.h"

#include <algorithm>

#include "src/base/bitmap.h"
#include "src/base/check.h"

namespace hyperalloc::hv {
namespace {

// NVMe-class backing device.
constexpr uint64_t kSwapOut4kNs = 8000;
constexpr uint64_t kSwapIn4kNs = 15000;
// Frames swapped out per pressure event (batched writeback).
constexpr uint64_t kBatchFrames = 4096;  // 16 MiB

}  // namespace

SwapManager::SwapManager(sim::Simulation* sim, HostMemory* host,
                         const SwapConfig& config)
    : sim_(sim), host_(host), config_(config) {
  HA_CHECK(sim != nullptr && host != nullptr);
}

void SwapManager::Register(guest::GuestVm* vm,
                           std::function<bool(HugeId)> is_hot) {
  HA_CHECK(vm != nullptr);
  auto state = std::make_unique<VmState>();
  state->vm = vm;
  state->is_hot = std::move(is_hot);
  state->swapped.assign((vm->total_frames() + 63) / 64, 0);
  VmState* raw = state.get();
  vm->SetHostPressureHandler(
      [this, raw](uint64_t frames) { return MakeRoom(raw, frames); });
  vm->SetFaultSurcharge([this, raw](FrameId first, uint64_t count) {
    return OnFault(raw, first, count);
  });
  vms_.push_back(std::move(state));
}

bool SwapManager::MakeRoom(VmState* requester, uint64_t frames) {
  const uint64_t want = std::max(frames, kBatchFrames);
  uint64_t freed = 0;
  // Victim order: round-robin over the *other* VMs first; the faulting
  // VM itself only as a last resort (otherwise a touching loop would
  // evict its own freshly faulted pages).
  std::vector<VmState*> order;
  for (size_t i = 0; i < vms_.size(); ++i) {
    VmState* candidate = vms_[(next_victim_ + i) % vms_.size()].get();
    if (candidate != requester) {
      order.push_back(candidate);
    }
  }
  next_victim_ = (next_victim_ + 1) % vms_.size();
  order.push_back(requester);
  for (size_t attempts = 0; attempts < order.size() && freed < want;
       ++attempts) {
    VmState& victim = *order[attempts];
    guest::GuestVm& vm = *victim.vm;
    const uint64_t total = vm.total_frames();
    uint64_t batch_ns = 0;
    // Two passes: cold frames first (per the shared hotness hints), hot
    // frames only if nothing cold remains.
    for (int pass = 0; pass < 2 && freed < want; ++pass) {
      uint64_t scanned = 0;
      while (freed < want && scanned < total) {
        const FrameId f = victim.clock_hand;
        victim.clock_hand = (victim.clock_hand + 1) % total;
        ++scanned;
        if (!vm.ept().IsMapped(f)) {
          continue;
        }
        if (pass == 0 && victim.is_hot && victim.is_hot(FrameToHuge(f))) {
          continue;  // recently accessed: spare it on the first pass
        }
        if (swap_used_ * kFrameSize >= config_.capacity_bytes) {
          return freed >= frames;  // swap device full
        }
        vm.ept().Unmap(f, 1);
        victim.swapped[f / 64] |= 1ull << (f % 64);
        ++swap_used_;
        ++swapped_out_;
        ++freed;
        batch_ns += kSwapOut4kNs;
      }
      if (!victim.is_hot) {
        break;  // no oracle: one pass is exhaustive
      }
    }
    if (batch_ns > 0) {
      sim_->AdvanceClock(batch_ns);  // writeback to the swap device
    }
  }
  return freed >= frames;
}

uint64_t SwapManager::OnFault(VmState* state, FrameId first,
                              uint64_t count) {
  const uint64_t swapped_in = ClearBits(state->swapped, first, count);
  HA_DCHECK(swap_used_ >= swapped_in);
  swap_used_ -= swapped_in;
  swapped_in_ += swapped_in;
  return swapped_in * kSwapIn4kNs;
}

}  // namespace hyperalloc::hv

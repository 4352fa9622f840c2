// Pluggable fleet resize policies: the control loop that decides, once
// per epoch, which VMs de/inflate and by how much (DESIGN.md §4.12).
//
// Inputs per VM: a working-set estimate (EWMA over RSS samples kept by
// the engine), the VM's own declared demand, and its current limit.
// Global inputs: pool capacity/committed state and a pressure signal in
// [0, 1]. Output: per-VM limit targets with virtual-time deadlines —
// the engine's admission control then clips grows that would overcommit
// the pool (src/fleet/fleet.h).
//
// Policies are deterministic pure functions of their inputs: Decide()
// is called on the engine's control thread with all VMs quiesced at an
// epoch barrier, in VM-index order, so byte-identical fleet outcomes
// across worker-thread counts hold whatever policy runs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/types.h"
#include "src/sim/simulation.h"

namespace hyperalloc::fleet {

// Per-VM policy input, one consistent epoch reading.
struct VmSignal {
  // Static VM size (the upper bound for any limit).
  uint64_t memory_bytes = 0;
  // Current hard limit (deflator reading, or memory_bytes for baselines).
  uint64_t limit_bytes = 0;
  // Engine-maintained working-set estimate (EWMA of populated RSS).
  uint64_t wss_bytes = 0;
  // The VM's declared demand (arrival trace level) — may exceed
  // limit_bytes when the VM is being held back.
  uint64_t demand_bytes = 0;
  // A resize issued in an earlier epoch is still in flight.
  bool busy = false;
};

// Global policy input.
struct PoolSignal {
  uint64_t capacity_bytes = 0;
  // Frames actually taken from the host pool.
  uint64_t used_bytes = 0;
  // Sum of current limits (the commitment the fleet could grow into).
  uint64_t committed_bytes = 0;
  // committed / capacity, clamped to [0, 1] by the engine.
  double pressure = 0.0;
};

// One policy decision for one VM. `target_bytes == limit_bytes` (or a
// busy VM) means "leave it alone"; the engine skips no-op requests.
struct ResizeAction {
  uint64_t target_bytes = 0;
  // Relative virtual-time budget forwarded as ResizeRequest::deadline_ns
  // (0 = backend default).
  sim::Time deadline = 0;
};

struct PolicyConfig {
  // Floor below which no policy shrinks a VM.
  uint64_t min_limit_bytes = 16 * kMiB;
  // Growth room granted above the working set / demand.
  uint64_t headroom_bytes = 4 * kMiB;
};

// Ignore limit deltas smaller than this (anti-oscillation — the
// Moniruzzaman ballooning pathology).
inline constexpr uint64_t kHysteresisBytes = 4 * kMiB;
// Deadline stamped on every issued request.
inline constexpr sim::Time kResizeDeadline = 2 * sim::kSec;
// Proportional-share: fraction of capacity withheld from the share
// computation (kept as slack; admission control enforces it too).
inline constexpr double kShareReserve = 0.05;

class ResizePolicy {
 public:
  virtual ~ResizePolicy() = default;
  virtual const char* name() const = 0;
  // Fills `actions` (resized to vms.size() by the caller, pre-set to
  // "keep current limit") in VM-index order. Stateful policies (PID)
  // may keep history; they are still deterministic because Decide runs
  // once per epoch on one thread.
  virtual void Decide(const PoolSignal& pool,
                      const std::vector<VmSignal>& vms,
                      std::vector<ResizeAction>* actions) = 0;
};

// want_i = max(wss, demand) + headroom, clamped to the VM; when the sum
// exceeds usable capacity, everyone above the floor scales back
// proportionally (weighted fair share of the surplus).
std::unique_ptr<ResizePolicy> MakeProportionalShare(
    const PolicyConfig& config);

// PI(D) loop on pool pressure: below the setpoint grows flow freely up
// to the epoch budget; above it the budget collapses and only shrinks
// pass.
std::unique_ptr<ResizePolicy> MakePressurePid(const PolicyConfig& config);

// Adapter over src/hv/market.h pricing: spot price from utilization,
// each VM gets min(demand, affordable-at-price) — Ginseng-style
// market allocation driven by the fleet's own signals.
std::unique_ptr<ResizePolicy> MakeMarketPolicy(const PolicyConfig& config);

}  // namespace hyperalloc::fleet

#include "src/fleet/policy.h"

#include <algorithm>
#include <cmath>

#include "src/hv/market.h"

namespace hyperalloc::fleet {
namespace {

// Pressure-PID gains: error = setpoint - pressure drives a per-epoch
// grow budget of |u| * capacity bytes (shrinks are always allowed).
constexpr double kSetpoint = 0.85;
constexpr double kP = 0.8;
constexpr double kI = 0.2;
constexpr double kD = 0.1;
// Market adapter: per-VM budget (credits/s).
constexpr double kBudgetPerS = 1.0;

// What the VM would like its limit to be, before any global scaling.
uint64_t WantBytes(const PolicyConfig& config, const VmSignal& vm) {
  const uint64_t need = std::max(vm.wss_bytes, vm.demand_bytes);
  const uint64_t want = need + config.headroom_bytes;
  const uint64_t floor = std::min(config.min_limit_bytes, vm.memory_bytes);
  return std::clamp(want, floor, vm.memory_bytes);
}

uint64_t FloorBytes(const PolicyConfig& config, const VmSignal& vm) {
  return std::min(config.min_limit_bytes, vm.memory_bytes);
}

bool WorthMoving(const VmSignal& vm, uint64_t target) {
  const uint64_t delta = target > vm.limit_bytes ? target - vm.limit_bytes
                                                 : vm.limit_bytes - target;
  return delta >= kHysteresisBytes;
}

class ProportionalShare : public ResizePolicy {
 public:
  explicit ProportionalShare(const PolicyConfig& config) : config_(config) {}
  const char* name() const override { return "proportional-share"; }

  void Decide(const PoolSignal& pool, const std::vector<VmSignal>& vms,
              std::vector<ResizeAction>* actions) override {
    const uint64_t usable = static_cast<uint64_t>(
        static_cast<double>(pool.capacity_bytes) *
        (1.0 - kShareReserve));
    uint64_t sum_want = 0;
    uint64_t sum_floor = 0;
    for (const VmSignal& vm : vms) {
      sum_want += WantBytes(config_, vm);
      sum_floor += FloorBytes(config_, vm);
    }
    for (size_t i = 0; i < vms.size(); ++i) {
      const VmSignal& vm = vms[i];
      if (vm.busy) {
        continue;
      }
      uint64_t target = WantBytes(config_, vm);
      if (sum_want > usable && sum_want > sum_floor) {
        // Scale back the surplus above each VM's floor so the fleet
        // fits; integer math ordered to avoid overflow at 1024 VMs
        // (surplus and spare both fit comfortably in doubles).
        const uint64_t floor = FloorBytes(config_, vm);
        const uint64_t surplus = target - floor;
        const double spare =
            usable > sum_floor
                ? static_cast<double>(usable - sum_floor)
                : 0.0;
        const double scale =
            spare / static_cast<double>(sum_want - sum_floor);
        target = floor + static_cast<uint64_t>(
                             static_cast<double>(surplus) *
                             std::min(scale, 1.0));
      }
      if (WorthMoving(vm, target)) {
        (*actions)[i] = {target, kResizeDeadline};
      }
    }
  }

 private:
  PolicyConfig config_;
};

class PressurePid : public ResizePolicy {
 public:
  explicit PressurePid(const PolicyConfig& config) : config_(config) {}
  const char* name() const override { return "pressure-pid"; }

  void Decide(const PoolSignal& pool, const std::vector<VmSignal>& vms,
              std::vector<ResizeAction>* actions) override {
    // error > 0: pool below the setpoint, growth welcome; error < 0:
    // overshoot, clamp growth and let shrinks drain pressure.
    const double error = kSetpoint - pool.pressure;
    integral_ = std::clamp(integral_ + error, -4.0, 4.0);  // anti-windup
    const double derivative = error - last_error_;
    last_error_ = error;
    const double u = kP * error + kI * integral_ + kD * derivative;

    // The controller output is a per-epoch grow budget in bytes; a
    // non-positive u freezes growth entirely.
    uint64_t grow_budget =
        u > 0.0 ? static_cast<uint64_t>(
                      std::min(u, 1.0) *
                      static_cast<double>(pool.capacity_bytes))
                : 0;

    // Pass 1: shrinks always go through (they only relieve pressure).
    // Pass 2: grows spend the budget in VM-index order — deterministic
    // and simple; proportional fairness is ProportionalShare's job.
    for (size_t i = 0; i < vms.size(); ++i) {
      const VmSignal& vm = vms[i];
      if (vm.busy) {
        continue;
      }
      const uint64_t want = WantBytes(config_, vm);
      if (want <= vm.limit_bytes) {
        if (WorthMoving(vm, want)) {
          (*actions)[i] = {want, kResizeDeadline};
        }
        continue;
      }
      const uint64_t grow = want - vm.limit_bytes;
      const uint64_t granted = std::min(grow, grow_budget);
      grow_budget -= granted;
      const uint64_t target = vm.limit_bytes + granted;
      if (WorthMoving(vm, target)) {
        (*actions)[i] = {target, kResizeDeadline};
      }
    }
  }

 private:
  PolicyConfig config_;
  double integral_ = 0.0;
  double last_error_ = 0.0;
};

class MarketPolicy : public ResizePolicy {
 public:
  // The market defaults (512 MiB floor/headroom) are sized for the
  // paper's 16 GiB VMs; the fleet floor/headroom are authoritative here
  // so small VMs are not pinned at their static size.
  explicit MarketPolicy(const PolicyConfig& config)
      : market_{.headroom_bytes = config.headroom_bytes,
                .min_limit_bytes = config.min_limit_bytes} {}
  const char* name() const override { return "market"; }

  void Decide(const PoolSignal& pool, const std::vector<VmSignal>& vms,
              std::vector<ResizeAction>* actions) override {
    const double utilization =
        pool.capacity_bytes > 0
            ? static_cast<double>(pool.used_bytes) /
                  static_cast<double>(pool.capacity_bytes)
            : 0.0;
    const double price = hv::MarketPrice(market_, utilization);
    for (size_t i = 0; i < vms.size(); ++i) {
      const VmSignal& vm = vms[i];
      if (vm.busy) {
        continue;
      }
      // "Used" from the fleet's vantage point is the working set the VM
      // would actually touch at its demand level.
      const uint64_t used = std::max(vm.wss_bytes, vm.demand_bytes);
      const uint64_t target = hv::MarketTargetLimit(
          market_, price, used, kBudgetPerS, vm.memory_bytes);
      if (WorthMoving(vm, target)) {
        (*actions)[i] = {target, kResizeDeadline};
      }
    }
  }

 private:
  hv::MarketConfig market_;
};

}  // namespace

std::unique_ptr<ResizePolicy> MakeProportionalShare(
    const PolicyConfig& config) {
  return std::make_unique<ProportionalShare>(config);
}

std::unique_ptr<ResizePolicy> MakePressurePid(const PolicyConfig& config) {
  return std::make_unique<PressurePid>(config);
}

std::unique_ptr<ResizePolicy> MakeMarketPolicy(const PolicyConfig& config) {
  return std::make_unique<MarketPolicy>(config);
}

}  // namespace hyperalloc::fleet

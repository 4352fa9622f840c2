#include "src/hv/market.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"

namespace hyperalloc::hv {
namespace {

constexpr sim::Time kPeriod = 10 * sim::kSec;
// Credits per GiB-second when the host is empty.
constexpr double kBasePrice = 1.0;
constexpr double kMaxPrice = 64.0;

}  // namespace

double MarketPrice(const MarketConfig& config, double utilization) {
  utilization = std::clamp(utilization, 0.0, 0.99);
  const double price =
      kBasePrice / std::pow(1.0 - utilization, config.scarcity_exponent);
  return std::min(price, kMaxPrice);
}

uint64_t MarketTargetLimit(const MarketConfig& config, double price,
                           uint64_t used_bytes, double budget_per_s,
                           uint64_t memory_bytes) {
  HA_CHECK(price > 0.0);
  const uint64_t demand = used_bytes + config.headroom_bytes;
  const uint64_t affordable = static_cast<uint64_t>(
      budget_per_s / price * static_cast<double>(kGiB));
  // Small fleet VMs can sit below min_limit_bytes entirely; never clamp
  // the floor above what the VM even has.
  const uint64_t lo = std::min(config.min_limit_bytes, memory_bytes);
  return std::clamp(std::min(demand, affordable), lo, memory_bytes);
}

MemoryMarket::MemoryMarket(sim::Simulation* sim, HostMemory* host,
                           const MarketConfig& config)
    : sim_(sim), host_(host), config_(config), price_(kBasePrice) {
  HA_CHECK(sim != nullptr && host != nullptr);
}

size_t MemoryMarket::Register(guest::GuestVm* vm, Deflator* deflator,
                              double budget_per_s) {
  HA_CHECK(vm != nullptr && deflator != nullptr);
  HA_CHECK(budget_per_s > 0.0);
  tenants_.push_back({vm, deflator, budget_per_s});
  return tenants_.size() - 1;
}

double MemoryMarket::PriceForUtilization(double utilization) const {
  return MarketPrice(config_, utilization);
}

void MemoryMarket::Tick() {
  const sim::Time now = sim_->now();
  const double dt_s =
      static_cast<double>(now - last_tick_) / static_cast<double>(sim::kSec);
  last_tick_ = now;

  // Spot price from host scarcity (one consistent pool reading).
  const MemorySnapshot pool = host_->snapshot();
  price_ = PriceForUtilization(static_cast<double>(pool.used) /
                               static_cast<double>(pool.total));

  for (Tenant& tenant : tenants_) {
    // Bill the elapsed interval at the *previous* limit (GiB-seconds).
    const double limit_gib =
        static_cast<double>(tenant.deflator->limit_bytes()) /
        static_cast<double>(kGiB);
    tenant.billed += limit_gib * price_ * dt_s;

    // What the tenant wants vs what it can afford at this price. Guest
    // usage is the current limit minus what is still free inside the
    // guest (hypervisor-reclaimed frames are *not* demand).
    const uint64_t free_bytes = tenant.vm->FreeFrames() * kFrameSize;
    const uint64_t limit_now = tenant.deflator->limit_bytes();
    const uint64_t used =
        limit_now > free_bytes ? limit_now - free_bytes : 0;
    const uint64_t target =
        MarketTargetLimit(config_, price_, used, tenant.budget_per_s,
                          tenant.vm->config().memory_bytes);
    // Hysteresis: move only on meaningful change, and never preempt an
    // in-flight resize.
    const uint64_t current = tenant.deflator->limit_bytes();
    const uint64_t delta =
        target > current ? target - current : current - target;
    if (delta >= 256 * kMiB && !tenant.deflator->busy()) {
      tenant.deflator->Request({.target_bytes = target, .done = {}});
    }
  }
}

void MemoryMarket::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  last_tick_ = sim_->now();
  ScheduleNext();
}

void MemoryMarket::ScheduleNext() {
  sim_->After(kPeriod, [this] {
    if (running_) {
      Tick();
      ScheduleNext();
    }
  });
}

void MemoryMarket::Stop() { running_ = false; }

double MemoryMarket::BilledCredits(size_t tenant) const {
  HA_CHECK(tenant < tenants_.size());
  return tenants_[tenant].billed;
}

uint64_t MemoryMarket::CurrentLimit(size_t tenant) const {
  HA_CHECK(tenant < tenants_.size());
  return tenants_[tenant].deflator->limit_bytes();
}

}  // namespace hyperalloc::hv

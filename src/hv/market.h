// Market-driven memory allocation across VMs (paper §6 and the Ginseng
// line of work cited in §7): physical memory carries a price that rises
// with host scarcity; each tenant has a budget, and the orchestrator
// periodically sets every VM's hard limit to what the tenant can afford
// — "with a price tag at each frame, we have an objective measure" for
// reclamation decisions, and tenants get a monetary incentive to give
// back unused memory immediately (the IaaS-follows-FaaS billing trend
// from §1).
//
// Policy per tick:
//   price        = 1 / (1 - utilization)^scarcity  (clamped to 64)
//   demand_i     = guest used memory + working headroom
//   affordable_i = budget_i / price
//   limit_i      = clamp(min(demand_i, affordable_i))
// and every tenant is billed limit_i * price * dt (GiB-seconds pricing,
// like AWS Lambda).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/guest/guest_vm.h"
#include "src/hv/deflator.h"
#include "src/hv/host_memory.h"
#include "src/sim/simulation.h"

namespace hyperalloc::hv {

struct MarketConfig {
  double scarcity_exponent = 2.0;
  // Headroom a tenant keeps above its current usage (growth room).
  uint64_t headroom_bytes = 512 * kMiB;
  uint64_t min_limit_bytes = 512 * kMiB;
};

// The pricing core as free functions, so other control loops (the fleet
// engine's market policy, src/fleet/policy.cc) can price memory without
// owning a MemoryMarket instance or its tick scheduling.
//
// Spot price at the given pool utilization in [0, 1]:
//   1 / (1 - utilization)^scarcity credits per GiB-second, clamped to 64.
double MarketPrice(const MarketConfig& config, double utilization);

// The limit one tenant can justify at `price`: min(demand, affordable)
// clamped to [min(min_limit, memory), memory], where
//   demand     = used_bytes + headroom
//   affordable = budget_per_s / price  (in GiB).
uint64_t MarketTargetLimit(const MarketConfig& config, double price,
                           uint64_t used_bytes, double budget_per_s,
                           uint64_t memory_bytes);

class MemoryMarket {
 public:
  MemoryMarket(sim::Simulation* sim, HostMemory* host,
               const MarketConfig& config = {});

  // `budget_per_s` is the tenant's spending cap in credits per second.
  // Returns the tenant index (for billing queries).
  size_t Register(guest::GuestVm* vm, Deflator* deflator,
                  double budget_per_s);

  void Start();
  void Stop();

  // Runs one pricing/resize round immediately (also used by tests).
  void Tick();

  double current_price() const { return price_; }
  double BilledCredits(size_t tenant) const;
  uint64_t CurrentLimit(size_t tenant) const;

 private:
  struct Tenant {
    guest::GuestVm* vm;
    Deflator* deflator;
    double budget_per_s;
    double billed = 0.0;
  };

  double PriceForUtilization(double utilization) const;
  void ScheduleNext();

  sim::Simulation* sim_;
  HostMemory* host_;
  MarketConfig config_;
  std::vector<Tenant> tenants_;
  double price_;
  sim::Time last_tick_ = 0;
  bool running_ = false;
};

}  // namespace hyperalloc::hv

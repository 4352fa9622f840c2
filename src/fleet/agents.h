// Stock fleet agents: the workloads that run inside fleet VMs.
//
// DemandAgent drives an arrival-trace demand curve (the 1000-VM policy
// scenarios): it allocates chunked anonymous memory toward the current
// demand level, capped below the VM's hard limit, and frees back when
// demand decays — so the policy layer, not the agent, decides how much
// memory the VM actually holds.
//
// CompileAgent replicates the old multi-VM harness VM world exactly
// (staggered clang builds on auto-reclaim, Fig. 11): same construction
// order, same event schedule, byte-identical RSS series.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/fleet/arrival.h"
#include "src/fleet/fleet.h"
#include "src/sim/vcpu.h"
#include "src/workloads/compile.h"
#include "src/workloads/interference_hub.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::fleet {

struct DemandAgentConfig {
  // Demand levels over time (from an ArrivalProcess::Generate call).
  std::vector<Arrival> trace;
  double thp_fraction = 0.6;
};

class DemandAgent : public VmAgent {
 public:
  explicit DemandAgent(const DemandAgentConfig& config);
  ~DemandAgent() override;

  void Start(VmContext* context) override;
  bool finished() const override;
  uint64_t demand_bytes() const override;
  void OnPressureSpike(uint64_t bytes) override;

 private:
  void Adjust();

  DemandAgentConfig config_;
  VmContext* context_ = nullptr;
  std::unique_ptr<workloads::MemoryPool> pool_;
  std::function<void()> adjust_tick_;
  uint64_t want_bytes_ = 0;
  uint64_t spike_bytes_ = 0;
  uint64_t held_bytes_ = 0;
  std::vector<uint64_t> regions_;
};

struct CompileAgentConfig {
  // Per-build template; build i runs with seed `compile.seed + i`.
  workloads::CompileConfig compile;
  int builds_per_vm = 3;
  sim::Time gap = 35 * sim::kMin;
  bool offset = false;  // stagger build starts by `offset_step` per VM
  sim::Time offset_step = 12 * sim::kMin;
};

class CompileAgent : public VmAgent {
 public:
  explicit CompileAgent(const CompileAgentConfig& config);
  ~CompileAgent() override;

  void Start(VmContext* context) override;
  bool finished() const override { return finished_; }
  uint64_t demand_bytes() const override;

 private:
  void StartBuild(int build);

  CompileAgentConfig config_;
  VmContext* context_ = nullptr;
  std::unique_ptr<workloads::MemoryPool> pool_;
  std::unique_ptr<sim::VcpuSet> vcpus_;
  std::unique_ptr<workloads::InterferenceHub> hub_;
  std::unique_ptr<workloads::CompileWorkload> compile_;
  int builds_done_ = 0;
  bool finished_ = false;
};

}  // namespace hyperalloc::fleet

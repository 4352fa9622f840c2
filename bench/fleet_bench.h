// Thin bench-side clients of the fleet engine (src/fleet/): the Fig. 11
// compile fleet (the old multi-VM harness scenario) and the policy-driven
// 1000-VM scenarios, plus the shared `hyperalloc-bench-fleet-v1` JSON
// emitter and fleet checks used by bench_fleet and bench_runner.
#ifndef HYPERALLOC_BENCH_FLEET_BENCH_H_
#define HYPERALLOC_BENCH_FLEET_BENCH_H_

#include <memory>
#include <string>
#include <string_view>

#include "bench/candidates.h"
#include "src/fleet/agents.h"
#include "src/fleet/arrival.h"
#include "src/fleet/fleet.h"
#include "src/fleet/policy.h"
#include "src/workloads/compile.h"

namespace hyperalloc::bench {

// The Fig. 11 (§5.6) compile-fleet shape: N identical VMs, each building
// clang `builds_per_vm` times with long gaps, optionally staggered.
// Same knobs (and defaults) as the retired bench-private harness.
struct CompileFleetOptions {
  uint64_t vms = 3;
  // Host threads driving the per-VM simulations (>= 1).
  unsigned threads = 1;
  Candidate candidate = Candidate::kHyperAlloc;
  bool offset = false;  // stagger build starts by `offset_step` per VM
  sim::Time gap = 35 * sim::kMin;
  sim::Time offset_step = 12 * sim::kMin;
  int builds_per_vm = 3;
  uint64_t vm_bytes = 16 * kGiB;
  // Pool beyond vms x vm_bytes; keeps TryReserve always-admitting, which
  // the run-to-completion determinism contract depends on.
  uint64_t host_slack_bytes = 16 * kGiB;
  sim::Time sample_period = sim::kSec;
  // Per-build template; build i of every VM runs with seed
  // `compile.seed + i` (VMs are identical tenants, as in Fig. 11).
  workloads::CompileConfig compile;
};

// A bench binary's verdict on its own output. Finish() prints one
// `FAILED:` line naming each failed check and returns the exit code.
class Gate {
 public:
  void Check(bool ok, std::string_view name);
  int Finish() const;

 private:
  std::string failed_;
};

// Parses a --threads=N value: a whole number of fleet worker threads,
// at least 1.
bool ParseThreads(std::string_view value, unsigned* threads);

// Parses a flag's unsigned number, which must fill all of `text`
// (`base` as for strtoull: 10, or 0 to also accept 0x hex).
bool ParseUint64(const char* text, int base, uint64_t* value);

// Runs the compile fleet in run-to-completion mode (no policy; resizes
// come from per-VM auto-reclaim). Per-VM RSS series and digests are
// byte-identical across `threads` settings.
fleet::FleetResult RunCompileFleet(const CompileFleetOptions& options);

// Writes bench_out/multivm_<tag>_vm<i>.csv plus the merged series (same
// file names as the retired harness, so plotting stays stable).
void WriteFleetCsvs(const fleet::FleetResult& result, const std::string& tag);

// A policy-driven fleet scenario: `vms` small VMs on an overcommitted
// host, demand driven by an arrival process, limits driven by a resize
// policy under admission control, with an optional pressure spike
// probing the time-to-reclaim SLO.
struct FleetScenarioOptions {
  uint64_t vms = 128;
  unsigned threads = 1;
  // "proportional-share" | "pressure-pid" | "market" | "none".
  std::string policy = "proportional-share";
  Candidate candidate = Candidate::kHyperAlloc;
  uint64_t vm_bytes = 64 * kMiB;
  // Pool sizing when host_bytes == 0: vms * vm_bytes / overcommit.
  double overcommit = 1.6;
  uint64_t host_bytes = 0;
  sim::Time horizon = 4 * sim::kMin;
  sim::Time epoch = 5 * sim::kSec;
  // kind/bounds/shape knobs; horizon and seed are overridden from the
  // scenario fields below.
  fleet::ArrivalConfig arrival;
  fleet::PolicyConfig policy_config;
  // spike.vms is clamped to the fleet size; 0 disables the probe.
  fleet::PressureSpike spike{2 * sim::kMin, 32, 32 * kMiB};
  bool record_series = true;
  // Huge-frame fast-path mode (§4.14): every demand agent touches its
  // regions THP-backed (thp_fraction = 1.0) so population and reclaim
  // both move at 2 MiB granularity; the emitted JSON gains the
  // fleet-wide huge-reclaim split.
  bool huge = false;
  uint64_t seed = 1;
  // Per-VM fault plan (VM i gets seed fault_plan.seed + i, like
  // bench_faults); default: no faults.
  fault::Plan fault_plan;
  // Barrier-sampled telemetry pipeline (src/telemetry/): on or off.
  telemetry::TelemetryOptions telemetry;
};

// Policy lookup by CLI name; returns null for "none"; aborts on an
// unknown name.
std::unique_ptr<fleet::ResizePolicy> MakePolicyByName(
    const std::string& name, const fleet::PolicyConfig& config);

const char* ArrivalKindName(fleet::ArrivalKind kind);

fleet::FleetResult RunFleetScenario(const FleetScenarioOptions& options);

// The `hyperalloc-bench-fleet-v1` JSON object (no surrounding key).
// `deterministic` is the caller's digest comparison across worker-thread
// counts; `indent` is the column of the object's members. `wall_ms`
// adds the run's host wall time (bench_runner's document is
// deterministic, so it leaves it out).
std::string FleetJson(const FleetScenarioOptions& options,
                      const fleet::FleetResult& result, bool deterministic,
                      int indent, bool wall_ms);

// The checks every policy fleet run must pass: `deterministic`, resizes
// issued and granted, the spike reclaimed (unless a fault plan may have
// quarantined the spiked VMs), telemetry epochs when on, a zero digest
// when off.
void CheckFleet(const FleetScenarioOptions& options,
                const fleet::FleetResult& result, bool deterministic,
                Gate* gate);

}  // namespace hyperalloc::bench

#endif  // HYPERALLOC_BENCH_FLEET_BENCH_H_

// Fleet engine: N simulated VMs de/inflating against one host
// pool under a pluggable resize policy (DESIGN.md §4.12) — the
// orchestration API that replaced the bench-private multi-VM harness.
//
// Execution model (epoch mode): every VM owns a private simulation and
// advances in bulk-synchronous epochs. Worker threads drive the VM
// simulations to the next epoch boundary in parallel; at the barrier
// the control loop runs sequentially on the calling thread, in VM-index
// order — signal collection, policy decision, admission control,
// request issue. Between barriers VMs share nothing but the host pool.
//
// Determinism contract (inherited from the old harness, now enforced at
// fleet scale): a VM's event stream depends only on its own simulation
// plus the *boolean* outcomes of HostMemory::TryReserve. Admission
// control keeps the committed-bytes ledger
//     sum_i max(limit_i, inflight_target_i) <= capacity * (1 - reserve)
// and the pool is one exact counter that refuses a reservation only when
// it does not fit, so TryReserve never fails mid-epoch, whatever the
// interleaving. That makes every per-VM outcome byte-identical no matter
// how many worker threads drive the fleet.
// Each VM's outcome stream is folded into an FNV-1a digest
// (samples, resize records, final limit); equal fleet digests across
// thread counts are the determinism check at 512-1024 VMs.
//
// Two legacy-compatibility modes ride on the same engine:
//   * run_to_completion: no epochs/policy — workers pull VM indices and
//     step each simulation until its agent finishes (the old compile
//     harness semantics, byte-identical event ordering included);
//   * shared_clock: all VMs live on ONE simulation (threads must be 1)
//     for causally coupled scenarios like swap-based overcommit.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/types.h"
#include "src/fault/fault.h"
#include "src/fleet/policy.h"
#include "src/guest/guest_vm.h"
#include "src/hv/deflator.h"
#include "src/hv/host_memory.h"
#include "src/metrics/timeseries.h"
#include "src/sim/simulation.h"
#include "src/telemetry/telemetry.h"

namespace hyperalloc::fleet {

// What a VM factory hands the engine: the guest, its de/inflation
// backend (null for static baselines), and an optional armed fault
// injector. The factory runs on the engine's construction thread, one
// VM at a time, in index order.
struct FleetVmParts {
  std::unique_ptr<guest::GuestVm> vm;
  std::unique_ptr<hv::Deflator> deflator;
  std::unique_ptr<fault::Injector> fault;
};

using VmFactory = std::function<FleetVmParts(
    sim::Simulation* sim, hv::HostMemory* host, uint64_t index,
    const std::string& name)>;

// Everything an agent may touch. Agents are single-VM actors: they
// schedule events on `sim` and allocate through `vm`; they never see
// other VMs or the pool, which is what keeps them determinism-safe.
struct VmContext {
  sim::Simulation* sim = nullptr;
  guest::GuestVm* vm = nullptr;
  hv::Deflator* deflator = nullptr;  // null for static baselines
  uint64_t index = 0;
  // Epoch mode: the virtual horizon (agents bound their periodic event
  // chains by it). 0 in run-to-completion mode.
  sim::Time horizon = 0;
};

// The workload inside one VM (src/fleet/agents.h has the stock ones).
class VmAgent {
 public:
  virtual ~VmAgent() = default;
  // Called once, before the first epoch, with the VM quiesced.
  virtual void Start(VmContext* context) = 0;
  // run_to_completion drives the simulation until this flips.
  virtual bool finished() const = 0;
  // The demand the VM declares to the policy layer (may exceed its
  // current limit — that is the grow signal).
  virtual uint64_t demand_bytes() const = 0;
  // Engine-injected pressure spike (the time-to-reclaim SLO probe).
  virtual void OnPressureSpike(uint64_t /*bytes*/) {}
};

using AgentFactory =
    std::function<std::unique_ptr<VmAgent>(uint64_t index)>;

// Engine-injected demand spike at virtual time `at`: the first `vms`
// agents gain `bytes` of demand; the time-to-reclaim SLO measures how
// long the fleet takes to grow all their limits over that demand.
struct PressureSpike {
  sim::Time at = 0;
  uint64_t vms = 0;
  uint64_t bytes = 0;
};

struct FleetConfig {
  uint64_t vms = 8;
  // Worker threads driving the VM simulations; 0 = one per VM (capped).
  unsigned threads = 1;
  uint64_t vm_bytes = 64 * kMiB;
  // Pool capacity; 0 = vms * vm_bytes + host_slack_bytes (the old
  // always-admitting harness sizing).
  uint64_t host_bytes = 0;
  uint64_t host_slack_bytes = 16 * kGiB;
  sim::Time horizon = 4 * sim::kMin;
  sim::Time epoch = 5 * sim::kSec;
  sim::Time sample_period = sim::kSec;
  // Keep per-VM RSS series in the result (the digests are always kept).
  bool record_series = true;
  // All VMs on one simulation; requires threads == 1 and
  // run_to_completion (causally coupled scenarios, e.g. swap).
  bool shared_clock = false;
  // Drive every agent to finished() instead of running epochs; no
  // policy, no admission (the legacy compile-harness mode).
  bool run_to_completion = false;
  // Epoch mode: synchronously shrink every VM to this limit at
  // construction so the committed ledger starts feasible (0 = leave
  // limits at vm_bytes; the ledger then only activates once feasible).
  uint64_t initial_limit_bytes = 0;
  // Fraction of pool capacity the admission ledger withholds.
  double admission_reserve = 0.05;
  // Arm the host pool's kHostReserve site with VM 0's injector.
  bool arm_host_faults = false;
  PressureSpike spike;
  // Fleet telemetry pipeline (epoch mode only; no-op under
  // -DHYPERALLOC_TRACE=0 and in run-to-completion mode, which has no
  // barriers to sample at).
  telemetry::TelemetryOptions telemetry;
};

// One issued resize, on the VM's virtual clock.
struct ResizeRecord {
  uint64_t vm = 0;
  sim::Time issued = 0;
  sim::Time completed = 0;
  uint64_t target_bytes = 0;
  uint64_t achieved_bytes = 0;
  bool complete = false;
  bool timed_out = false;
  // Fault-recovery accounting for this request (from the backend's
  // ResizeOutcome; zero for backends without outcome machinery).
  uint64_t faults = 0;
  uint64_t retries = 0;
  uint64_t rollbacks = 0;
};

// Admission-control accounting (grow requests only; shrinks always
// pass — they can only relieve pressure).
struct AdmissionStats {
  uint64_t granted = 0;
  uint64_t clipped = 0;   // granted, but cut to the ledger headroom
  uint64_t rejected = 0;  // clipped below the hysteresis threshold
};

// Service-level objectives over the run, in *virtual* time (and so
// deterministic and comparable across machines).
struct FleetSlo {
  uint64_t resizes = 0;
  double p50_resize_ms = 0.0;
  double p99_resize_ms = 0.0;
  bool spike_applied = false;
  bool spike_satisfied = false;
  double time_to_reclaim_ms = 0.0;
};

struct FleetResult {
  // FNV-1a per-VM outcome digests (samples + resize records + final
  // limit), and their index-order combination. Byte-identical across
  // worker-thread counts — the determinism check.
  std::vector<uint64_t> vm_digests;
  uint64_t fleet_digest = 0;
  // Per-VM RSS in GiB on each VM's virtual clock (empty unless
  // record_series), plus the virtual-time-aligned fleet sum.
  std::vector<metrics::TimeSeries> per_vm_rss;
  metrics::TimeSeries merged;
  double footprint_gib_min = 0.0;
  double peak_gib = 0.0;
  // Real pool high-water mark — depends on the host-thread
  // interleaving; reported, never digested.
  uint64_t pool_peak_frames = 0;
  double wall_ms = 0.0;
  FleetSlo slo;
  AdmissionStats admission;
  // Fleet-wide huge-frame reclaim split (§4.14), summed across every
  // VM's backend. Deterministic: the counters only move on each VM's
  // own virtual clock. All-zero for backends without a huge path.
  hv::HugeReclaimStats huge_reclaim;
  std::vector<ResizeRecord> resizes;
  std::vector<uint64_t> final_limit_bytes;
  // Barrier-sampled fleet telemetry (empty unless epoch mode with
  // telemetry enabled under HYPERALLOC_TRACE).
  telemetry::TelemetryResult telemetry;
};

// Sums sample index k across all series; series that ended keep
// contributing their last value (an idle VM still holds its memory).
metrics::TimeSeries MergeSum(const std::vector<metrics::TimeSeries>& series,
                             sim::Time period);

// Nearest-rank percentile (q in [0, 1]) over an unsorted millisecond
// sample — the method behind FleetSlo's p50/p99, exported so external
// cross-checks (e.g. span-derived latencies) compare like with like.
double PercentileMs(std::vector<double> values, double q);

bool SeriesEqual(const metrics::TimeSeries& a, const metrics::TimeSeries& b);

class FleetEngine {
 public:
  // `policy` may be null (run_to_completion, or epoch mode with no
  // control loop — resizes then come only from the agents themselves).
  FleetEngine(const FleetConfig& config, VmFactory vm_factory,
              AgentFactory agent_factory,
              std::unique_ptr<ResizePolicy> policy);
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  // Post-construction hook per VM (e.g. registering with a swap
  // manager); `sim` is the VM's simulation (the shared one in
  // shared-clock mode). Must be set before Run().
  void SetOnVmCreated(
      std::function<void(uint64_t index, sim::Simulation* sim,
                         guest::GuestVm* vm, hv::Deflator* deflator)>
          hook);

  // Builds the fleet and runs the scenario to completion. Call once.
  FleetResult Run();

  // Post-run access (bench_faults reads outcomes and fault counters).
  hv::HostMemory* host() { return host_.get(); }
  guest::GuestVm* vm(uint64_t index);
  hv::Deflator* deflator(uint64_t index);
  fault::Injector* injector(uint64_t index);

 private:
  struct VmState;

  void BuildVms();
  void RunEpochs(FleetResult* result);
  void RunToCompletion();
  void ControlStep(sim::Time barrier, FleetResult* result);
  void ParallelPass(const std::function<void(uint64_t)>& task);
  void StartSampling(VmState* state);
  // End-of-barrier telemetry sample: reads gauges with the fleet
  // quiesced and feeds Pipeline::OnEpoch.
  void SampleTelemetry(sim::Time barrier, uint64_t committed_bytes,
                       double pressure);

  FleetConfig config_;
  VmFactory vm_factory_;
  AgentFactory agent_factory_;
  std::unique_ptr<ResizePolicy> policy_;
  std::function<void(uint64_t, sim::Simulation*, guest::GuestVm*,
                     hv::Deflator*)>
      on_vm_created_;

  std::unique_ptr<hv::HostMemory> host_;
  // Shared-clock mode only: the one simulation every VM lives on.
  std::unique_ptr<sim::Simulation> shared_sim_;
  std::vector<std::unique_ptr<VmState>> states_;

  // Epoch-mode telemetry pipeline (null in run-to-completion mode).
  std::unique_ptr<telemetry::Pipeline> telemetry_;

  // Epoch-mode control state.
  bool ledger_active_ = false;
  bool spike_applied_ = false;
  sim::Time spike_applied_at_ = 0;
  AdmissionStats admission_;
  FleetSlo slo_;
};

}  // namespace hyperalloc::fleet

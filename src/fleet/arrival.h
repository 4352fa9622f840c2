// Arrival processes: deterministic per-VM demand/resize schedules for
// the fleet engine and the single-VM benches (one shared abstraction —
// the promotion of bench/resize_schedule.h's free-function schedule).
//
// A process generates, for each VM index, a sorted trace of `Arrival`
// events over a fixed horizon. The trace is a pure function of
// (config, vm_index): the same seed reproduces the same fleet traffic
// no matter how many host threads later drive the simulations, which is
// what the engine's cross-thread determinism contract rides on.
//
// Two consumers with two readings of `Arrival::bytes`:
//   * the fleet `DemandAgent` treats it as the VM's anonymous demand —
//     the policy layer then decides the limit (src/fleet/policy.h);
//   * single-VM benches (bench_ftq, bench_stream) apply it directly as
//     a deflator limit target via `ApplyResizeSchedule` — the classic
//     §5.4 shrink-at-20s / grow-at-90s experiment shape.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/types.h"
#include "src/hv/deflator.h"
#include "src/sim/simulation.h"

namespace hyperalloc::fleet {

// The §5.4 guest-impact schedule (formerly bench/resize_schedule.h):
// shrink the hard limit at t=20 s, restore it at t=90 s.
inline constexpr sim::Time kShrinkAt = 20 * sim::kSec;
inline constexpr sim::Time kGrowAt = 90 * sim::kSec;
inline constexpr uint64_t kResizeTarget = 2 * kGiB;
// Random traces are rounded to this demand quantum.
inline constexpr uint64_t kArrivalQuantumBytes = 2 * kMiB;

// One demand-change event: at virtual time `at` (relative to the
// schedule's start) the VM's demand — or limit target — becomes `bytes`.
struct Arrival {
  sim::Time at = 0;
  uint64_t bytes = 0;
};

enum class ArrivalKind {
  // Two events: floor_bytes at kShrinkAt, peak_bytes at kGrowAt.
  kStepResize,
  // Poisson bursts: exponential inter-burst gaps, uniform burst sizes
  // in (floor, peak], exponential hold times, decay back to the floor.
  kBursty,
  // Square-ish day/night wave with a per-VM phase offset: peak for
  // `duty` of each 2-minute period, floor otherwise.
  kDiurnal,
  // Bursty arrivals with Pareto-distributed burst sizes: most bursts
  // are small, a heavy tail pins the VM near its peak.
  kHeavyTailed,
};

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kBursty;
  sim::Time horizon = 5 * sim::kMin;
  uint64_t seed = 1;
  // Demand bounds; traces are clamped to [floor_bytes, peak_bytes] and
  // rounded to kArrivalQuantumBytes.
  uint64_t floor_bytes = 16 * kMiB;
  uint64_t peak_bytes = 48 * kMiB;
  // kDiurnal: the share of each period spent at the peak.
  double duty = 0.5;
};

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  virtual const char* name() const = 0;
  // The full trace for one VM over [0, horizon), sorted by time, with
  // consecutive equal-demand events coalesced. Deterministic in
  // (config, vm_index).
  virtual std::vector<Arrival> Generate(uint64_t vm_index) const = 0;
};

std::unique_ptr<ArrivalProcess> MakeArrivalProcess(
    const ArrivalConfig& config);

// Applies a trace as direct deflator limit requests relative to `start`
// — the single-VM bench path. A no-op for baselines (null deflator);
// an arrival that lands while a previous request is still in flight is
// skipped (the next one re-targets).
void ApplyResizeSchedule(sim::Simulation* sim, hv::Deflator* deflator,
                         const std::vector<Arrival>& arrivals,
                         sim::Time start);

// The legacy §5.4 two-point schedule for a VM of `memory_bytes`:
// StepResize with floor=kResizeTarget, peak=memory_bytes.
std::vector<Arrival> StepResizeTrace(uint64_t memory_bytes);

}  // namespace hyperalloc::fleet

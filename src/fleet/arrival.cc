#include "src/fleet/arrival.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"
#include "src/base/rng.h"

namespace hyperalloc::fleet {
namespace {

// kBursty / kHeavyTailed: mean exponential inter-burst gap and mean
// hold time at the burst level before decaying to the floor.
constexpr sim::Time kMeanGap = 45 * sim::kSec;
constexpr sim::Time kMeanHold = 20 * sim::kSec;
// kDiurnal.
constexpr sim::Time kDiurnalPeriod = 2 * sim::kMin;
// kHeavyTailed: Pareto shape (smaller = heavier tail).
constexpr double kParetoAlpha = 1.3;

// Per-VM stream seed: SplitMix64-style mix so adjacent VM indices get
// decorrelated streams from one fleet seed.
uint64_t MixSeed(uint64_t seed, uint64_t vm_index) {
  uint64_t z = seed + (vm_index + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Exponential variate with the given mean, capped at 8x the mean so a
// single unlucky draw cannot swallow the whole horizon.
sim::Time Exponential(Rng* rng, sim::Time mean) {
  const double u = rng->NextDouble();
  const double draw = -std::log(1.0 - u) * static_cast<double>(mean);
  const double cap = 8.0 * static_cast<double>(mean);
  return static_cast<sim::Time>(std::min(draw, cap));
}

class TraceBuilder {
 public:
  explicit TraceBuilder(const ArrivalConfig& config) : config_(config) {}

  void Add(sim::Time at, uint64_t bytes) {
    if (at >= config_.horizon) {
      return;
    }
    bytes = std::clamp(bytes, config_.floor_bytes, config_.peak_bytes);
    bytes = bytes / kArrivalQuantumBytes * kArrivalQuantumBytes;
    bytes = std::max(bytes, config_.floor_bytes);
    if (!trace_.empty() && trace_.back().at == at) {
      trace_.back().bytes = bytes;  // later decision at the same instant wins
      return;
    }
    trace_.push_back({at, bytes});
  }

  std::vector<Arrival> Take() {
    // Coalesce consecutive equal demands (they would be no-op events).
    std::vector<Arrival> out;
    for (const Arrival& a : trace_) {
      if (out.empty() || out.back().bytes != a.bytes) {
        out.push_back(a);
      }
    }
    return out;
  }

 private:
  const ArrivalConfig& config_;
  std::vector<Arrival> trace_;
};

class StepResizeProcess : public ArrivalProcess {
 public:
  explicit StepResizeProcess(const ArrivalConfig& config) : config_(config) {}
  const char* name() const override { return "step-resize"; }

  std::vector<Arrival> Generate(uint64_t /*vm_index*/) const override {
    // The two-point §5.4 schedule is exact by construction — no
    // quantum rounding, no horizon clipping (kGrowAt may exceed short
    // fleet horizons and still must fire for the single-VM benches).
    return {{kShrinkAt, config_.floor_bytes},
            {kGrowAt, config_.peak_bytes}};
  }

 private:
  ArrivalConfig config_;
};

class BurstyProcess : public ArrivalProcess {
 public:
  explicit BurstyProcess(const ArrivalConfig& config) : config_(config) {}
  const char* name() const override { return "bursty"; }

  std::vector<Arrival> Generate(uint64_t vm_index) const override {
    Rng rng(MixSeed(config_.seed, vm_index));
    TraceBuilder trace(config_);
    trace.Add(0, config_.floor_bytes);
    sim::Time t = Exponential(&rng, kMeanGap);
    while (t < config_.horizon) {
      const uint64_t level =
          config_.floor_bytes +
          rng.Range(1, std::max<uint64_t>(
                           config_.peak_bytes - config_.floor_bytes, 1));
      trace.Add(t, level);
      t += std::max<sim::Time>(Exponential(&rng, kMeanHold), 1);
      trace.Add(t, config_.floor_bytes);
      t += std::max<sim::Time>(Exponential(&rng, kMeanGap), 1);
    }
    return trace.Take();
  }

 private:
  ArrivalConfig config_;
};

class DiurnalProcess : public ArrivalProcess {
 public:
  explicit DiurnalProcess(const ArrivalConfig& config) : config_(config) {}
  const char* name() const override { return "diurnal"; }

  std::vector<Arrival> Generate(uint64_t vm_index) const override {
    Rng rng(MixSeed(config_.seed, vm_index));
    TraceBuilder trace(config_);
    const sim::Time phase = rng.Below(kDiurnalPeriod);
    const sim::Time on = static_cast<sim::Time>(
        std::clamp(config_.duty, 0.05, 0.95) *
        static_cast<double>(kDiurnalPeriod));
    trace.Add(0, config_.floor_bytes);
    for (sim::Time rise = phase; rise < config_.horizon;
         rise += kDiurnalPeriod) {
      trace.Add(rise, config_.peak_bytes);
      trace.Add(rise + on, config_.floor_bytes);
    }
    return trace.Take();
  }

 private:
  ArrivalConfig config_;
};

class HeavyTailedProcess : public ArrivalProcess {
 public:
  explicit HeavyTailedProcess(const ArrivalConfig& config)
      : config_(config) {}
  const char* name() const override { return "heavy-tailed"; }

  std::vector<Arrival> Generate(uint64_t vm_index) const override {
    Rng rng(MixSeed(config_.seed, vm_index));
    TraceBuilder trace(config_);
    trace.Add(0, config_.floor_bytes);
    sim::Time t = Exponential(&rng, kMeanGap);
    while (t < config_.horizon) {
      // Pareto(alpha) burst magnitude in [1, inf), mapped onto the
      // (floor, peak] band: x=1 is a minimal burst, the tail saturates.
      const double x =
          std::pow(1.0 - rng.NextDouble(), -1.0 / kParetoAlpha);
      const double fraction = std::min((x - 1.0) / 4.0 + 0.1, 1.0);
      const uint64_t level =
          config_.floor_bytes +
          static_cast<uint64_t>(
              fraction * static_cast<double>(config_.peak_bytes -
                                             config_.floor_bytes));
      trace.Add(t, level);
      // Big bursts also hold longer (size-duration correlation).
      const sim::Time hold = static_cast<sim::Time>(
          static_cast<double>(kMeanHold) * (0.5 + fraction));
      t += std::max<sim::Time>(hold, 1);
      trace.Add(t, config_.floor_bytes);
      t += std::max<sim::Time>(Exponential(&rng, kMeanGap), 1);
    }
    return trace.Take();
  }

 private:
  ArrivalConfig config_;
};

}  // namespace

std::unique_ptr<ArrivalProcess> MakeArrivalProcess(
    const ArrivalConfig& config) {
  HA_CHECK(config.floor_bytes <= config.peak_bytes);
  switch (config.kind) {
    case ArrivalKind::kStepResize:
      return std::make_unique<StepResizeProcess>(config);
    case ArrivalKind::kBursty:
      return std::make_unique<BurstyProcess>(config);
    case ArrivalKind::kDiurnal:
      return std::make_unique<DiurnalProcess>(config);
    case ArrivalKind::kHeavyTailed:
      return std::make_unique<HeavyTailedProcess>(config);
  }
  HA_CHECK(false);
  return nullptr;
}

void ApplyResizeSchedule(sim::Simulation* sim, hv::Deflator* deflator,
                         const std::vector<Arrival>& arrivals,
                         sim::Time start) {
  HA_CHECK(sim != nullptr);
  if (deflator == nullptr) {
    return;  // static baseline: nothing to resize
  }
  for (const Arrival& arrival : arrivals) {
    sim->At(start + arrival.at, [deflator, bytes = arrival.bytes] {
      if (!deflator->busy()) {
        deflator->Request({.target_bytes = bytes, .done = {}});
      }
    });
  }
}

std::vector<Arrival> StepResizeTrace(uint64_t memory_bytes) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kStepResize;
  config.floor_bytes = kResizeTarget;
  config.peak_bytes = memory_bytes;
  return MakeArrivalProcess(config)->Generate(0);
}

}  // namespace hyperalloc::fleet

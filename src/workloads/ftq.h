// FTQ (Fixed Time Quantum) CPU workload (CORAL benchmark suite, §5.4).
//
// Each thread counts how much work it completes in fixed wall-clock
// quanta (2^28 cycles ≈ 128 ms at 2.1 GHz). Work scales with the vCPU
// capacity left over by reclamation activity. Samples are aggregated
// across threads, as in the paper's Fig. 6.
#pragma once

#include <functional>

#include "src/metrics/timeseries.h"
#include "src/sim/simulation.h"
#include "src/sim/vcpu.h"

namespace hyperalloc::workloads {

// 2^28 cycles at 2.1 GHz.
inline constexpr sim::Time kFtqQuantum = 127'800'000;
// Work units one fully available thread completes per quantum.
inline constexpr double kFtqWorkPerQuantum = 2.55e6;

struct FtqConfig {
  unsigned threads = 12;
  unsigned vcpus = 12;
  unsigned samples = 1096;
};

class FtqWorkload {
 public:
  FtqWorkload(sim::Simulation* sim, const FtqConfig& config);

  sim::VcpuSet& vcpus() { return vcpus_; }

  void Start(std::function<void()> on_done);

  // (time, aggregated work across threads) per quantum.
  const metrics::TimeSeries& samples() const { return samples_; }

 private:
  void Tick(unsigned sample);

  sim::Simulation* sim_;
  FtqConfig config_;
  sim::VcpuSet vcpus_;
  metrics::TimeSeries samples_;
  std::function<void()> on_done_;
};

}  // namespace hyperalloc::workloads

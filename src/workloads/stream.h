// STREAM (McCalpin) memory-bandwidth workload model, customized like the
// paper's: only the Copy kernel, per-iteration bandwidth samples (§5.4).
//
// Each thread repeatedly copies a ~1 GiB buffer. An iteration's duration
// is obtained by integrating the thread's bandwidth timeline (reduced by
// reclamation traffic) and dividing by the thread's vCPU availability
// (reduced by driver kthreads and shootdown IPIs).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/metrics/timeseries.h"
#include "src/sim/capacity_timeline.h"
#include "src/sim/simulation.h"
#include "src/sim/vcpu.h"

namespace hyperalloc::workloads {

// Aggregate copy bandwidth of the evaluation machine by thread count
// (baseline row of Table 2, in bytes/ns = GB/s).
double StreamAggregateBandwidth(unsigned threads);

// Bytes moved per iteration (1 GiB copied = 2 GiB of traffic).
inline constexpr uint64_t kStreamBytesPerIteration = 2 * (1ull << 30);

struct StreamConfig {
  unsigned threads = 12;
  unsigned vcpus = 12;
  unsigned iterations = 60;
};

class StreamWorkload {
 public:
  StreamWorkload(sim::Simulation* sim, const StreamConfig& config);

  sim::VcpuSet& vcpus() { return vcpus_; }
  std::vector<sim::CapacityTimeline*> bandwidth_timelines();

  // Starts all threads; `on_done` fires when the last thread finishes.
  void Start(std::function<void()> on_done);

  bool done() const { return finished_threads_ == config_.threads; }

  // Per-iteration samples: (completion time, bandwidth in GB/s), all
  // threads merged — the scatter data of Fig. 5.
  const metrics::TimeSeries& samples() const { return samples_; }

 private:
  void RunIteration(unsigned thread, unsigned iteration);
  void IterationTick(unsigned thread, unsigned iteration, sim::Time start,
                     sim::Time tick, double remaining);

  sim::Simulation* sim_;
  StreamConfig config_;
  sim::VcpuSet vcpus_;
  std::vector<std::unique_ptr<sim::CapacityTimeline>> bandwidth_;
  metrics::TimeSeries samples_;
  unsigned finished_threads_ = 0;
  std::function<void()> on_done_;
};

}  // namespace hyperalloc::workloads

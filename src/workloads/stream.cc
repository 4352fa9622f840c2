#include "src/workloads/stream.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "src/base/check.h"

namespace hyperalloc::workloads {

double StreamAggregateBandwidth(unsigned threads) {
  // Piecewise-linear fit of the paper's baseline: 10.3 GB/s (1 thread),
  // 26.0 (4), 69.0 (12).
  static constexpr struct {
    unsigned threads;
    double gb_per_s;
  } kTable[] = {{1, 10.3}, {4, 26.0}, {12, 69.0}};
  if (threads <= 1) {
    return kTable[0].gb_per_s;
  }
  for (size_t i = 1; i < 3; ++i) {
    if (threads <= kTable[i].threads) {
      const double t0 = kTable[i - 1].threads;
      const double t1 = kTable[i].threads;
      const double frac = (static_cast<double>(threads) - t0) / (t1 - t0);
      return kTable[i - 1].gb_per_s +
             frac * (kTable[i].gb_per_s - kTable[i - 1].gb_per_s);
    }
  }
  return kTable[2].gb_per_s;
}

StreamWorkload::StreamWorkload(sim::Simulation* sim,
                               const StreamConfig& config)
    : sim_(sim), config_(config), vcpus_(config.vcpus) {
  HA_CHECK(config.threads >= 1 && config.threads <= config.vcpus);
  const double per_thread_bw =
      StreamAggregateBandwidth(config.threads) /
      static_cast<double>(config.threads);  // bytes per ns
  for (unsigned t = 0; t < config.threads; ++t) {
    bandwidth_.push_back(
        std::make_unique<sim::CapacityTimeline>(per_thread_bw));
  }
}

std::vector<sim::CapacityTimeline*> StreamWorkload::bandwidth_timelines() {
  std::vector<sim::CapacityTimeline*> result;
  result.reserve(bandwidth_.size());
  for (const auto& timeline : bandwidth_) {
    result.push_back(timeline.get());
  }
  return result;
}

void StreamWorkload::Start(std::function<void()> on_done) {
  on_done_ = std::move(on_done);
  for (unsigned t = 0; t < config_.threads; ++t) {
    RunIteration(t, 0);
  }
}

void StreamWorkload::RunIteration(unsigned thread, unsigned iteration) {
  if (iteration >= config_.iterations) {
    if (++finished_threads_ == config_.threads && on_done_) {
      on_done_();
    }
    return;
  }
  // Progress in small ticks, integrating *retrospectively* over each
  // elapsed window: reclamation activity reports its interference for the
  // slice it just executed, so looking backwards (like a real benchmark
  // experiencing the slowdown) observes it, while a forward-computed
  // duration would miss loads that have not been posted yet.
  const sim::Time start = sim_->now();
  const double base_bw = bandwidth_[thread]->base_capacity();
  const sim::Time tick = std::max<sim::Time>(
      static_cast<sim::Time>(static_cast<double>(
          kStreamBytesPerIteration) / base_bw) /
          32,
      sim::kMs);
  sim_->After(tick, [this, thread, iteration, start, tick] {
    IterationTick(thread, iteration, start, tick,
                  static_cast<double>(kStreamBytesPerIteration));
  });
}

void StreamWorkload::IterationTick(unsigned thread, unsigned iteration,
                                   sim::Time start, sim::Time tick,
                                   double remaining) {
  const sim::Time t1 = sim_->now();
  const sim::Time t0 = t1 - tick;
  // Bytes moved this tick: the bandwidth left over by reclamation
  // traffic, scaled by the vCPU time left over by driver kthreads.
  const double bw_avg =
      bandwidth_[thread]->Integrate(t0, t1) / static_cast<double>(tick);
  const double cpu_avail =
      vcpus_.cpu(thread % vcpus_.size()).Integrate(t0, t1) /
      static_cast<double>(tick);
  remaining -= bw_avg * cpu_avail * static_cast<double>(tick);
  if (remaining <= 0.0) {
    const sim::Time duration = std::max<sim::Time>(t1 - start, 1);
    samples_.Sample(t1, static_cast<double>(kStreamBytesPerIteration) /
                            static_cast<double>(duration));
    bandwidth_[thread]->TrimBefore(t1 > sim::kSec ? t1 - sim::kSec : 0);
    vcpus_.cpu(thread % vcpus_.size())
        .TrimBefore(t1 > sim::kSec ? t1 - sim::kSec : 0);
    RunIteration(thread, iteration + 1);
    return;
  }
  sim_->After(tick, [this, thread, iteration, start, tick, remaining] {
    IterationTick(thread, iteration, start, tick, remaining);
  });
}

}  // namespace hyperalloc::workloads

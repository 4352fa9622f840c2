#include "src/workloads/ftq.h"

#include "src/base/check.h"

namespace hyperalloc::workloads {

FtqWorkload::FtqWorkload(sim::Simulation* sim, const FtqConfig& config)
    : sim_(sim), config_(config), vcpus_(config.vcpus) {
  HA_CHECK(config.threads >= 1 && config.threads <= config.vcpus);
}

void FtqWorkload::Start(std::function<void()> on_done) {
  on_done_ = std::move(on_done);
  Tick(0);
}

void FtqWorkload::Tick(unsigned sample) {
  if (sample >= config_.samples) {
    if (on_done_) {
      on_done_();
    }
    return;
  }
  const sim::Time start = sim_->now();
  const sim::Time end = start + kFtqQuantum;
  sim_->At(end, [this, sample, start, end] {
    // Aggregate work over all threads: each thread's count scales with
    // its vCPU availability during the quantum.
    double work = 0.0;
    for (unsigned t = 0; t < config_.threads; ++t) {
      const double avail = vcpus_.cpu(t % vcpus_.size()).Integrate(start, end) /
                           static_cast<double>(kFtqQuantum);
      work += kFtqWorkPerQuantum * avail;
    }
    samples_.Sample(end, work);
    for (unsigned t = 0; t < vcpus_.size(); ++t) {
      vcpus_.cpu(t).TrimBefore(end > sim::kSec ? end - sim::kSec : 0);
    }
    Tick(sample + 1);
  });
}

}  // namespace hyperalloc::workloads

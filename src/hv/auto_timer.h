// The periodic timer behind every backend's automatic reclamation
// (hv::Deflator::StartAuto/StopAuto): HyperAlloc's and the generic
// monitor's 5 s scan, virtio-balloon's free-page reporting and
// virtio-mem's simulated auto mode.
//
// Stopping cannot cancel an event already queued, so each tick carries
// the generation of the Start() that armed it: a tick from before a
// Stop()/Start() pair finds a newer generation and ends its chain,
// instead of running beside the new one. Besides that, a tick schedules
// exactly what a plain "if (!running) return; tick; re-arm" chain does,
// including the one re-arm after a tick that stopped the timer.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "src/sim/simulation.h"

namespace hyperalloc::hv {

class AutoTimer {
 public:
  // `tick` runs once per firing and returns the delay to the next one.
  AutoTimer(sim::Simulation* sim, sim::Time first_delay,
            std::function<sim::Time()> tick)
      : sim_(sim), first_delay_(first_delay), tick_(std::move(tick)) {}
  // Queued events point at it: never copied.
  AutoTimer(const AutoTimer&) = delete;
  AutoTimer& operator=(const AutoTimer&) = delete;

  // Fires first `first_delay` from now; a no-op while running.
  void Start() {
    if (running_) {
      return;
    }
    running_ = true;
    Arm(first_delay_, ++generation_);
  }
  void Stop() { running_ = false; }

 private:
  void Arm(sim::Time delay, uint64_t generation) {
    sim_->After(delay, [this, generation] {
      if (!running_ || generation != generation_) {
        return;
      }
      Arm(tick_(), generation);
    });
  }

  sim::Simulation* sim_;
  sim::Time first_delay_;
  std::function<sim::Time()> tick_;
  bool running_ = false;
  uint64_t generation_ = 0;
};

}  // namespace hyperalloc::hv

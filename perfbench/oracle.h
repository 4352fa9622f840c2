// Recorded virtual-time outputs: the correctness oracle. The simulator
// is deterministic, so every simulated figure below must repeat exactly;
// a host-time optimisation that moves any of them changed behaviour.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/base/types.h"
#include "src/sim/simulation.h"

namespace perfbench {

inline constexpr uint64_t kDefaultSeed = 1;

// e1_resize: virtual durations of one cycle's four steps.
struct E1Durations {
  hyperalloc::sim::Time touched_shrink = 0;
  hyperalloc::sim::Time grow = 0;
  hyperalloc::sim::Time untouched_shrink = 0;
  hyperalloc::sim::Time grow_install = 0;

  bool operator==(const E1Durations&) const = default;

  std::string ToString() const {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "{%llu, %llu, %llu, %llu} ns",
                  static_cast<unsigned long long>(touched_shrink),
                  static_cast<unsigned long long>(grow),
                  static_cast<unsigned long long>(untouched_shrink),
                  static_cast<unsigned long long>(grow_install));
    return buf;
  }
};

// Each cycle's durations depend on where the monitor's reclaim hint
// stands, which drifts from cycle to cycle; so the oracle is the
// recorded sequence. The first cycle runs after the 19 GiB prepare,
// later ones after the previous cycle's 18 GiB install.
struct E1Run {
  unsigned cycles;
  E1Durations durations;
};

inline constexpr E1Run kE1Cycles[] = {
#include "perfbench/e1_cycles.inc"
};

inline constexpr unsigned kE1RecordedCycles = [] {
  unsigned n = 0;
  for (const E1Run& run : kE1Cycles) {
    n += run.cycles;
  }
  return n;
}();

// The recorded durations of cycle `cycle` (< kE1RecordedCycles).
inline E1Durations E1Expected(unsigned cycle) {
  for (const E1Run& run : kE1Cycles) {
    if (cycle < run.cycles) {
      return run.durations;
    }
    cycle -= run.cycles;
  }
  return {};
}

// The simulator's E1 rates beside the paper's Fig. 4 HyperAlloc values
// (GiB/s for an 18 GiB limit change).
inline std::string E1PaperComparison(const E1Durations& d) {
  const double gib = 18.0;
  auto rate = [gib](hyperalloc::sim::Time ns) {
    return ns == 0 ? 0.0 : gib / (static_cast<double>(ns) / 1e9);
  };
  struct Row {
    const char* name;
    double sim;
    double paper;
  };
  const Row rows[] = {{"reclaim", rate(d.touched_shrink), 344.8},
                      {"return", rate(d.grow), 8530.0},
                      {"reclaim untouched", rate(d.untouched_shrink), 5038.0},
                      {"return+install", rate(d.grow_install), 4.0}};
  std::string out = "e1 GiB/s simulated vs paper:";
  for (const Row& r : rows) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), " %s %.1f vs %.1f (%+.1f%%);", r.name,
                  r.sim, r.paper, (r.sim / r.paper - 1.0) * 100.0);
    out += buf;
  }
  return out;
}

// fleet_diurnal: kFleetVms small VMs with diurnal demand on a host with
// room for 1/1.6 of their combined size (bench_fleet's default
// overcommit). Timed runs use kFleetThreads worker threads; the digest
// check repeats the fleet on kCheckThreads. 512 VMs rather than 256
// because the request mix depends on how the VMs' random phases overlap:
// over ten seeds the median request time spread 12% at 256 VMs and 3.5%
// at 512.
inline constexpr uint64_t kFleetVms = 512;
inline constexpr unsigned kFleetThreads = 1;
inline constexpr unsigned kCheckThreads = 2;
inline constexpr uint64_t kFleetVmBytes = 64 * hyperalloc::kMiB;
inline constexpr uint64_t kFleetHostBytes = kFleetVms * kFleetVmBytes * 5 / 8;
inline constexpr hyperalloc::sim::Time kFleetHorizon =
    60 * hyperalloc::sim::kMin;

// The fleet digest of the default seed.
inline constexpr uint64_t kFleetDigest = 0x8eb0cc27499adc5d;

}  // namespace perfbench

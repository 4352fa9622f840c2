// SPEC CPU 2017 "blender" workload trace (paper §5.5 "Repeated
// Workloads"): a render job that reads its scene into the page cache,
// builds up a large working set, and holds it for the render while
// continuously recycling tile buffers (churn). Alongside, the kernel
// accumulates long-lived unmovable state (dentries, inodes, driver
// buffers) that persists after the run — under memory pressure these
// scatter across the physical address space and strand partially used
// huge frames, which is what makes the post-run reclaim gap between
// buddy-based reporting and HyperAlloc (Fig. 10).
#pragma once

#include <functional>
#include <vector>

#include "src/base/rng.h"
#include "src/guest/guest_vm.h"
#include "src/sim/simulation.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::workloads {

struct BlenderConfig {
  uint64_t scene_bytes = 1200 * kMiB;  // read into the page cache
  uint64_t working_set = 8 * kGiB;     // render buffers
  unsigned rampup_steps = 20;          // working set built up gradually
  sim::Time render_time = 4 * sim::kMin;
  double thp_fraction = 0.25;
  // Tile-buffer churn during the render: every interval, 5% of the
  // working set is freed and re-allocated.
  sim::Time churn_interval = 2 * sim::kSec;
  // Kernel slab behaviour: single-frame unmovable allocations made
  // continuously during the render, of which 80% are freed again in
  // random order shortly after. The survivors are what fragments the
  // address space (partially used slab pages pinning their huge frames).
  uint64_t slab_alloc_per_tick = 16 * kMiB;
  uint64_t seed = 7;
};

class BlenderWorkload {
 public:
  BlenderWorkload(guest::GuestVm* vm, MemoryPool* pool,
                  const BlenderConfig& config);

  // One full run: load scene -> ramp up -> render (with churn) -> free
  // the working set. Kernel-resident allocations stay.
  void Run(std::function<void()> on_done);

 private:
  void RampStep(unsigned step, std::function<void()> on_done);
  void RenderTick(sim::Time end, std::function<void()> on_done);

  guest::GuestVm* vm_;
  MemoryPool* pool_;
  sim::Simulation* sim_;
  BlenderConfig config_;
  Rng rng_;
  std::vector<uint64_t> regions_;    // working set (freed per run)
  std::vector<FrameId> slab_young_;  // slab frames still subject to frees
  uint64_t churn_chunk_ = 0;
};

}  // namespace hyperalloc::workloads

// Clang-compilation workload trace (paper §5.5).
//
// Models a parallel `make -j12` build of clang: thousands of compile jobs
// with bursty, mixed-size working sets (driving the real guest allocator)
// followed by a link phase with few large jobs; the page cache grows with
// every source read and artifact written. The shape — fluctuating anon
// memory on top of a monotonically growing page cache, peaking near the
// VM's memory limit during linking — is what makes this the paper's
// elasticity stress test (Figs. 7–9, 11).
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "src/base/rng.h"
#include "src/guest/guest_vm.h"
#include "src/sim/simulation.h"
#include "src/sim/vcpu.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::workloads {

struct CompileConfig {
  unsigned workers = 12;
  unsigned compile_units = 2200;
  unsigned link_jobs = 24;
  unsigned max_parallel_links = 2;
  uint64_t seed = 1;
  // Compile-job parameters.
  sim::Time unit_time_min = 2 * sim::kSec;
  sim::Time unit_time_max = 10 * sim::kSec;
  uint64_t unit_ws_min = 80 * kMiB;
  uint64_t unit_ws_max = 400 * kMiB;
  // Link-job working sets.
  uint64_t link_ws_min = 1 * kGiB;
  uint64_t link_ws_max = 2560ull * kMiB;
  // Page-cache growth per compile unit (sources read + artifact written).
  uint64_t cache_read_per_unit = 2 * kMiB;
  uint64_t artifact_per_unit = 3 * kMiB;
  double thp_fraction = 0.3;
  // Long-lived kernel-side (unmovable) allocations per job: slab objects,
  // dentries, inodes. These scatter across the physical memory and are
  // what fragments the buddy allocator's huge blocks over time (§4.2);
  // LLFree's per-type trees segregate them instead.
  uint64_t slab_per_job = 8 * kMiB;
};

class CompileWorkload {
 public:
  CompileWorkload(guest::GuestVm* vm, MemoryPool* pool,
                  sim::VcpuSet* vcpus, const CompileConfig& config);

  void Start(std::function<void()> on_done);
  bool done() const { return done_; }

  // Removes the build artifacts from the page cache (`make clean`).
  void MakeClean();

  uint64_t artifact_bytes() const { return artifact_bytes_; }
  unsigned jobs_completed() const { return jobs_completed_; }

 private:
  struct Job {
    sim::Time duration;
    uint64_t working_set;
    bool is_link;
  };

  void WorkerNext(unsigned worker);
  // Jobs grow their working set in increments over their runtime, so
  // concurrent workers' frames interleave in physical memory — the
  // temporal interleaving that fragments a real guest.
  void JobStep(unsigned worker, uint64_t region, Job job, unsigned step,
               sim::Time step_time);
  void FinishJob(unsigned worker, uint64_t region, bool was_link);
  void RetireSlabs();

  guest::GuestVm* vm_;
  MemoryPool* pool_;
  sim::VcpuSet* vcpus_;  // may be null (no CPU contention modelling)
  sim::Simulation* sim_;
  CompileConfig config_;
  Rng rng_;

  std::vector<Job> queue_;  // compile units then link jobs, back = next
  std::deque<uint64_t> slab_regions_;
  unsigned slab_counter_ = 0;
  unsigned active_links_ = 0;
  unsigned active_workers_ = 0;
  unsigned jobs_completed_ = 0;
  uint64_t artifact_bytes_ = 0;
  bool done_ = false;
  std::function<void()> on_done_;
};

}  // namespace hyperalloc::workloads

#include "src/workloads/compile.h"

#include "src/base/check.h"

namespace hyperalloc::workloads {
namespace {

// Link-job durations.
constexpr sim::Time kLinkTimeMin = 10 * sim::kSec;
constexpr sim::Time kLinkTimeMax = 30 * sim::kSec;
// Working-set growth increments per job.
constexpr unsigned kWsSteps = 4;
// A slab region outlives this many later jobs before shrinkers free it;
// every kSlabLeakEvery-th region stays resident until the VM dies.
constexpr unsigned kSlabLifetimeJobs = 72;
constexpr unsigned kSlabLeakEvery = 16;

}  // namespace

CompileWorkload::CompileWorkload(guest::GuestVm* vm, MemoryPool* pool,
                                 sim::VcpuSet* vcpus,
                                 const CompileConfig& config)
    : vm_(vm), pool_(pool), vcpus_(vcpus), sim_(vm->simulation()),
      config_(config), rng_(config.seed) {
  HA_CHECK(config.workers > 0);
  // Build the job queue: the back is processed first, so push link jobs
  // first (they run last).
  for (unsigned i = 0; i < config.link_jobs; ++i) {
    Job job;
    job.duration = rng_.Range(kLinkTimeMin, kLinkTimeMax);
    job.working_set = rng_.Range(config.link_ws_min, config.link_ws_max);
    job.is_link = true;
    queue_.push_back(job);
  }
  for (unsigned i = 0; i < config.compile_units; ++i) {
    Job job;
    job.duration = rng_.Range(config.unit_time_min, config.unit_time_max);
    job.working_set = rng_.Range(config.unit_ws_min, config.unit_ws_max);
    job.is_link = false;
    queue_.push_back(job);
  }
}

void CompileWorkload::Start(std::function<void()> on_done) {
  on_done_ = std::move(on_done);
  for (unsigned w = 0; w < config_.workers; ++w) {
    WorkerNext(w);
  }
}

void CompileWorkload::WorkerNext(unsigned worker) {
  // Find the next runnable job (link jobs have bounded parallelism, and
  // only start once all compile units are done — honoured naturally by
  // queue order plus the parallelism cap).
  if (queue_.empty()) {
    if (active_workers_ == 0 && !done_) {
      done_ = true;
      if (on_done_) {
        on_done_();
      }
    }
    return;
  }
  if (queue_.back().is_link && active_links_ >= config_.max_parallel_links) {
    // Wait for a link slot.
    sim_->After(sim::kSec, [this, worker] { WorkerNext(worker); });
    return;
  }
  const Job job = queue_.back();
  queue_.pop_back();
  ++active_workers_;
  if (job.is_link) {
    ++active_links_;
  }

  // Reading sources warms the page cache; the kernel grows slab state.
  vm_->CacheAdd(config_.cache_read_per_unit, worker);
  if (config_.slab_per_job > 0) {
    const uint64_t slab = pool_->AllocRegion(
        config_.slab_per_job, 0.0, worker, AllocType::kUnmovable);
    ++slab_counter_;
    if (slab_counter_ % kSlabLeakEvery == 0) {
      // Long-lived kernel objects: never tracked for retirement.
    } else {
      slab_regions_.push_back(slab);
    }
    RetireSlabs();
  }
  // The working set ramps up over the job's runtime (JobStep), so the 12
  // workers' allocations interleave in physical memory.
  const uint64_t region = pool_->AllocRegion(
      job.working_set / kWsSteps, config_.thp_fraction, worker);

  // The job's CPU time stretches with whatever reclamation steals from
  // this worker's vCPU.
  const sim::Time start = sim_->now();
  const sim::Time end =
      vcpus_ != nullptr
          ? vcpus_->cpu(worker % vcpus_->size())
                .ConsumeFrom(start, static_cast<double>(job.duration))
          : start + job.duration;
  const sim::Time step_time = (end - start) / kWsSteps;
  sim_->After(step_time, [this, worker, region, job, step_time] {
    JobStep(worker, region, job, 1, step_time);
  });
}

void CompileWorkload::JobStep(unsigned worker, uint64_t region, Job job,
                              unsigned step, sim::Time step_time) {
  if (step >= kWsSteps) {
    FinishJob(worker, region, job.is_link);
    return;
  }
  pool_->GrowRegion(region, job.working_set / kWsSteps, config_.thp_fraction,
                    worker);
  sim_->After(step_time, [this, worker, region, job, step, step_time] {
    JobStep(worker, region, job, step + 1, step_time);
  });
}

void CompileWorkload::FinishJob(unsigned worker, uint64_t region,
                                bool was_link) {
  pool_->FreeRegion(region, worker);
  // Writing the artifact grows the page cache.
  const uint64_t artifact =
      was_link ? 16 * config_.artifact_per_unit : config_.artifact_per_unit;
  vm_->CacheAdd(artifact, worker);
  artifact_bytes_ += artifact;
  ++jobs_completed_;
  if (was_link) {
    --active_links_;
  }
  --active_workers_;
  WorkerNext(worker);
}

void CompileWorkload::RetireSlabs() {
  while (slab_regions_.size() > kSlabLifetimeJobs) {
    pool_->FreeRegion(slab_regions_.front(), 0);
    slab_regions_.pop_front();
  }
}

void CompileWorkload::MakeClean() {
  vm_->CacheDrop(artifact_bytes_);
  artifact_bytes_ = 0;
}

}  // namespace hyperalloc::workloads

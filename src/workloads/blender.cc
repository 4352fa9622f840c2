#include "src/workloads/blender.h"

#include <algorithm>

#include "src/base/check.h"

namespace hyperalloc::workloads {
namespace {

constexpr sim::Time kRampupStepTime = 2 * sim::kSec;
// Share of the working set recycled per churn interval.
constexpr double kChurnFraction = 0.05;
// Share of the young slab objects that survive each render tick.
constexpr double kSlabSurvival = 0.20;

}  // namespace

BlenderWorkload::BlenderWorkload(guest::GuestVm* vm, MemoryPool* pool,
                                 const BlenderConfig& config)
    : vm_(vm), pool_(pool), sim_(vm->simulation()), config_(config),
      rng_(config.seed) {
  HA_CHECK(config.rampup_steps > 0);
}

void BlenderWorkload::Run(std::function<void()> on_done) {
  // The scene file is read once per run; on repeats it is (partially)
  // already cached, so only the delta is added.
  const uint64_t cached = vm_->cache_bytes();
  if (cached < config_.scene_bytes) {
    vm_->CacheAdd(config_.scene_bytes - cached);
  }
  churn_chunk_ = config_.working_set / config_.rampup_steps;
  RampStep(0, std::move(on_done));
}

void BlenderWorkload::RampStep(unsigned step,
                               std::function<void()> on_done) {
  if (step < config_.rampup_steps) {
    regions_.push_back(pool_->AllocRegion(churn_chunk_,
                                          config_.thp_fraction, 0));
    sim_->After(kRampupStepTime,
                [this, step, on_done = std::move(on_done)]() mutable {
                  RampStep(step + 1, std::move(on_done));
                });
    return;
  }
  RenderTick(sim_->now() + config_.render_time, std::move(on_done));
}

void BlenderWorkload::RenderTick(sim::Time end,
                                 std::function<void()> on_done) {
  if (sim_->now() >= end) {
    // Render finished: release the working set. Kernel residue stays.
    for (const uint64_t region : regions_) {
      pool_->FreeRegion(region, 0);
    }
    regions_.clear();
    if (on_done) {
      on_done();
    }
    return;
  }
  // Tile churn: recycle part of the working set. This randomizes the
  // allocator's free lists under full memory pressure.
  const uint64_t recycle = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(regions_.size()) *
                               kChurnFraction));
  for (uint64_t i = 0; i < recycle && !regions_.empty(); ++i) {
    const size_t idx = rng_.Below(regions_.size());
    pool_->FreeRegion(regions_[idx], 0);
    regions_[idx] =
        pool_->AllocRegion(churn_chunk_, config_.thp_fraction, 0);
  }
  // Kernel slab churn: single unmovable frames allocated wherever the
  // free lists currently point, most of which die again quickly. The
  // survivors strand their huge frames — unless the allocator keeps
  // unmovable memory spatially confined (LLFree's per-type trees).
  const uint64_t slab_frames = FramesForBytes(config_.slab_alloc_per_tick);
  for (uint64_t i = 0; i < slab_frames; ++i) {
    const Result<FrameId> r =
        vm_->Alloc(0, AllocType::kUnmovable, 0);
    if (r.ok()) {
      vm_->Touch(*r, 1);
      slab_young_.push_back(*r);
    }
  }
  // Most young slab objects die in random order; survivors stay forever.
  uint64_t dying = static_cast<uint64_t>(
      static_cast<double>(slab_young_.size()) *
      (1.0 - kSlabSurvival));
  while (dying-- > 0 && !slab_young_.empty()) {
    const size_t idx = rng_.Below(slab_young_.size());
    vm_->Free(slab_young_[idx], 0, 0);
    slab_young_[idx] = slab_young_.back();
    slab_young_.pop_back();
  }
  slab_young_.clear();  // survivors are permanent; stop tracking them
  sim_->After(config_.churn_interval,
              [this, end, on_done = std::move(on_done)]() mutable {
                RenderTick(end, std::move(on_done));
              });
}

}  // namespace hyperalloc::workloads

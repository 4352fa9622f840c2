#include "src/fleet/agents.h"

#include <algorithm>
#include <string>

#include "src/base/check.h"

namespace hyperalloc::fleet {
namespace {

// Keep this far below the hard limit (room the guest kernel needs).
constexpr uint64_t kMarginBytes = 2 * kMiB;
constexpr uint64_t kChunkBytes = 2 * kMiB;
// Reconciliation period: how often held memory chases demand/limit.
constexpr sim::Time kAdjustPeriod = sim::kSec;

}  // namespace

DemandAgent::DemandAgent(const DemandAgentConfig& config) : config_(config) {}

DemandAgent::~DemandAgent() = default;

void DemandAgent::Start(VmContext* context) {
  HA_CHECK(context_ == nullptr);
  context_ = context;
  pool_ = std::make_unique<workloads::MemoryPool>(context->vm);
  // Demand transitions apply immediately; the periodic tick reconciles
  // held memory against demand *and* limit (the limit moves between
  // arrivals as the policy layer works). Arrival times are relative to
  // now: the engine's initial-limit shrink already advanced this VM's
  // clock (by the same amount on every VM, so alignment holds).
  const sim::Time start = context->sim->now();
  for (const Arrival& arrival : config_.trace) {
    context->sim->At(start + arrival.at, [this, bytes = arrival.bytes] {
      want_bytes_ = bytes;
      Adjust();
    });
  }
  adjust_tick_ = [this] {
    Adjust();
    const sim::Time next = context_->sim->now() + kAdjustPeriod;
    if (context_->horizon == 0 || next <= context_->horizon) {
      context_->sim->After(kAdjustPeriod, adjust_tick_);
    }
  };
  context->sim->At(context->sim->now(), adjust_tick_);
}

bool DemandAgent::finished() const {
  return context_ != nullptr && context_->horizon > 0 &&
         context_->sim->now() > context_->horizon;
}

uint64_t DemandAgent::demand_bytes() const {
  const uint64_t memory =
      context_ != nullptr ? context_->vm->config().memory_bytes : 0;
  return std::min(want_bytes_ + spike_bytes_, memory);
}

void DemandAgent::OnPressureSpike(uint64_t bytes) {
  spike_bytes_ += bytes;
}

void DemandAgent::Adjust() {
  const uint64_t limit = context_->deflator != nullptr
                             ? context_->deflator->limit_bytes()
                             : context_->vm->config().memory_bytes;
  const uint64_t cap = limit > kMarginBytes ? limit - kMarginBytes : 0;
  const uint64_t target = std::min(demand_bytes(), cap);
  while (held_bytes_ + kChunkBytes <= target) {
    const uint64_t region = pool_->AllocRegion(
        kChunkBytes, config_.thp_fraction, /*core=*/0);
    // The admission ledger keeps sum(limits) under pool capacity and we
    // stay under our limit, so allocation cannot fail (the determinism
    // contract rides on this).
    HA_CHECK(region != 0);
    regions_.push_back(region);
    held_bytes_ += kChunkBytes;
  }
  while (held_bytes_ > target && !regions_.empty()) {
    pool_->FreeRegion(regions_.back(), /*core=*/0);
    regions_.pop_back();
    held_bytes_ -= kChunkBytes;
  }
}

CompileAgent::CompileAgent(const CompileAgentConfig& config)
    : config_(config) {
  HA_CHECK(config_.builds_per_vm > 0);
}

CompileAgent::~CompileAgent() = default;

void CompileAgent::Start(VmContext* context) {
  HA_CHECK(context_ == nullptr);
  context_ = context;
  // Same construction order as the old harness VM world: pool, vcpus,
  // interference hub, then auto-reclaim (or full population for static
  // baselines) — the event schedule, and with it the RSS series, is
  // byte-identical.
  pool_ = std::make_unique<workloads::MemoryPool>(context->vm);
  vcpus_ = std::make_unique<sim::VcpuSet>(12);
  hub_ = std::make_unique<workloads::InterferenceHub>(
      vcpus_.get(), std::vector<sim::CapacityTimeline*>{});
  context->vm->SetInterferenceSink(hub_.get());
  if (context->deflator != nullptr) {
    context->deflator->StartAuto();
  } else {
    context->vm->Touch(0, context->vm->total_frames());
  }
  const sim::Time at =
      context->sim->now() +
      (config_.offset
           ? static_cast<sim::Time>(context->index) * config_.offset_step
           : 0);
  context->sim->At(at, [this] { StartBuild(0); });
}

uint64_t CompileAgent::demand_bytes() const {
  return context_ != nullptr ? context_->vm->rss_bytes() : 0;
}

void CompileAgent::StartBuild(int build) {
  workloads::CompileConfig cc = config_.compile;
  cc.seed = config_.compile.seed + static_cast<uint64_t>(build);
  compile_ = std::make_unique<workloads::CompileWorkload>(
      context_->vm, pool_.get(), vcpus_.get(), cc);
  compile_->Start([this] {
    compile_->MakeClean();  // artifacts are rebuilt next time
    if (++builds_done_ >= config_.builds_per_vm) {
      finished_ = true;
      return;
    }
    context_->sim->After(config_.gap, [this] { StartBuild(builds_done_); });
  });
}

}  // namespace hyperalloc::fleet

#include "src/hv/recovery.h"

#include <utility>

#include "src/base/check.h"
#include "src/hv/cost_model.h"

namespace hyperalloc::hv {

Recovery::Recovery(sim::Simulation* sim, const RecoveryNames& names,
                   CpuAccounting* cpu, ResizeOutcome* outcome)
    : sim_(sim),
      cpu_(cpu),
      outcome_(outcome),
      fault_count_{names.fault},
      retry_count_{names.retry},
      rollback_count_{names.rollback},
      timeout_count_{names.timeout},
      backoff_name_(names.backoff_ns) {}

void Recovery::Begin(const ResizeRequest& request, bool inflate,
                     uint64_t frames) {
  HA_CHECK(!busy_);
  busy_ = true;
  inflate_ = inflate;
  *outcome_ = ResizeOutcome{};
  outcome_->target_bytes = request.target_bytes;
  deadline_ = request.deadline_ns > 0 ? sim_->now() + request.deadline_ns : 0;
  done_ = request.done;
  on_outcome_ = request.on_outcome;
  span_.Start(inflate ? "request.inflate" : "request.deflate");
  span_.AddFrames(frames);
}

bool Recovery::TimedOut() {
  if (deadline_ == 0 || sim_->now() < deadline_) {
    return false;
  }
  ++timeouts_;
  outcome_->timed_out = true;
  timeout_count_.Add();
  return true;
}

void Recovery::Finish(uint64_t achieved_bytes, bool quarantined) {
  const uint64_t target = outcome_->target_bytes;
  outcome_->achieved_bytes = achieved_bytes;
  outcome_->quarantined = quarantined;
  outcome_->complete = !quarantined && (inflate_ ? achieved_bytes <= target
                                                 : achieved_bytes >= target);
  span_.Finish();
  busy_ = false;
  deadline_ = 0;
  // Moved out first: a callback may start the next request.
  const auto on_outcome = std::move(on_outcome_);
  const auto done = std::move(done_);
  if (on_outcome) {
    on_outcome(*outcome_);
  }
  if (done) {
    done();
  }
}

Attempt Recovery::Fault(fault::Kind kind) {
  ++faults_;
  if (trace::Span* span = trace::Span::Current()) {
    span->AddFault();
  }
  if (busy_) {
    ++outcome_->faults;
    span_.AddFault();
  }
  fault_count_.Add();
  return kind == fault::Kind::kPermanent ? Attempt::kPermanent
                                         : Attempt::kTransient;
}

void Recovery::Rollback(bool of_request) {
  if (busy_ && of_request) {
    ++outcome_->rollbacks;
  }
  rollback_count_.Add();
}

void Recovery::Backoff(unsigned retry) {
  ++retries_;
  if (trace::Span* span = trace::Span::Current()) {
    span->AddRetry();
  }
  if (busy_) {
    ++outcome_->retries;
    span_.AddRetry();
  }
  retry_count_.Add();
  cpu_->host_user_ns +=
      ChargeTraced(sim_, backoff_name_, BackoffNs(retry));
}

void Recovery::LazyCounter::Add() {
#if HYPERALLOC_TRACE
  if (counter == nullptr) {
    counter = &trace::CounterRegistry::Global().FindOrCreate(name);
  }
  counter->Add(1);
#endif
}

}  // namespace hyperalloc::hv

#include "src/hv/recovery.h"

#include <utility>

#include "src/base/check.h"
#include "src/hv/cost_model.h"

namespace hyperalloc::hv {

Recovery::Recovery(sim::Simulation* sim, const RecoveryNames& names,
                   Deflator* owner, CpuAccounting* cpu)
    : sim_(sim),
      owner_(owner),
      cpu_(cpu),
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
  outcome() = ResizeOutcome{.target_bytes = request.target_bytes};
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
  outcome().timed_out = true;
  timeout_count_.Add();
  return true;
}

void Recovery::Finish() {
  ResizeOutcome& o = outcome();
  o.achieved_bytes = owner_->limit_bytes();
  o.quarantined = quarantined_;
  o.complete = !quarantined_ && (inflate_ ? o.achieved_bytes <= o.target_bytes
                                          : o.achieved_bytes >= o.target_bytes);
  span_.Finish();
  busy_ = false;
  deadline_ = 0;
  // Moved out first: a callback may start the next request.
  const auto on_outcome = std::move(on_outcome_);
  const auto done = std::move(done_);
  if (on_outcome) {
    on_outcome(o);
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
  if (in_slice_) {
    ++outcome().faults;
    span_.AddFault();
  }
  fault_count_.Add();
  return kind == fault::Kind::kPermanent ? Attempt::kPermanent
                                         : Attempt::kTransient;
}

void Recovery::Rollback() {
  if (in_slice_) {
    ++outcome().rollbacks;
  }
  rollback_count_.Add();
}

void Recovery::Backoff(unsigned retry) {
  ++retries_;
  if (trace::Span* span = trace::Span::Current()) {
    span->AddRetry();
  }
  if (in_slice_) {
    ++outcome().retries;
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

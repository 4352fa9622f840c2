// The request lifecycle and fault recovery of every de/inflation backend
// (DESIGN.md §4.9).
//
// HyperAlloc, virtio-balloon and virtio-mem move a VM's limit the same
// way: a request runs in slices that interleave with the workload, as a
// driver kthread would. The first slice runs inside Request; each later
// one is a zero-delay event; before each, the request's trace context is
// re-entered and its deadline checked. Recovery::Run owns all of that
// and ends the request where it stands (the partial-reclaim contract); a
// backend supplies only a step that does one slice of work.
//
// The backends also cross the same host boundaries (hypercalls, EPT
// unmap, IOMMU pin/unpin) and recover from a failed one by the same
// rules: a bounded number of attempts, a virtual-time exponential backoff
// before each retry, and quarantine once a failure is unrecoverable.
// This type holds those rules and everything they account: the lifetime
// counts, the backend's `<backend>.fault*` counters and backoff
// histogram, the innermost and request spans, and the request's
// hv::ResizeOutcome. A request is billed only the faults, retries and
// rollbacks of its own slices; background work (auto-reclaim passes,
// free-page reports, guest-triggered installs) is billed to no request.
// A backend keeps only what is specific to a boundary: how one attempt is
// made, and what a failed operation leaves to undo.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

#include "src/fault/fault.h"
#include "src/hv/deflator.h"
#include "src/sim/simulation.h"
#include "src/trace/span.h"
#include "src/trace/trace.h"

namespace hyperalloc::hv {

// Tries per operation, the first included.
inline constexpr unsigned kMaxAttempts = 4;
inline constexpr uint64_t kBackoffInitialNs = 20'000;  // 20 us
inline constexpr uint64_t kBackoffCapNs = 1'000'000;   // 1 ms

// The backoff charged before 0-based retry `retry`: 20 us * 2^retry,
// capped at 1 ms.
constexpr uint64_t BackoffNs(unsigned retry) {
  uint64_t ns = kBackoffInitialNs;
  for (unsigned i = 0; i < retry && ns < kBackoffCapNs; ++i) {
    ns *= 2;
  }
  return std::min(ns, kBackoffCapNs);
}

// What one attempt at a fallible boundary came to.
enum class Attempt : uint8_t { kOk, kTransient, kPermanent };

// What one slice of a request came to: more slices to run, or the
// request has gone as far as it can.
enum class Slice : uint8_t { kMore, kDone };

// The counters and the histogram one backend's recovery counts under.
struct RecoveryNames {
  const char* fault;       // "<backend>.fault"
  const char* retry;       // "<backend>.fault_retry"
  const char* rollback;    // "<backend>.fault_rollback"
  const char* timeout;     // "<backend>.request_timeout"
  const char* backoff_ns;  // "<backend>.fault_backoff_ns"
};

class Recovery {
 public:
  // `owner` is the backend: a request ends at its limit_bytes() and
  // leaves its outcome in owner->last_outcome(). Backoff is charged to
  // `cpu`'s host user time.
  Recovery(sim::Simulation* sim, const RecoveryNames& names, Deflator* owner,
           CpuAccounting* cpu);
  // Points into its owner: never copied.
  Recovery(const Recovery&) = delete;
  Recovery& operator=(const Recovery&) = delete;

  // --- The request -----------------------------------------------------
  // Runs `request`, which moves `frames` base frames (`inflate`: toward
  // the host), to its end. `step` is a copyable callable returning Slice
  // that does one slice of work. The first slice runs before Run
  // returns, each later one in its own zero-delay event. A slice does
  // not run once the owner is quarantined or the request's deadline
  // (request.deadline_ns after now; 0 = none) has passed: the request
  // then finishes where it stands (partial reclaim). Finishing fills the
  // outcome, closes the request span, then fires `on_outcome` and
  // `done`, in the request's trace context.
  template <class Step>
  void Run(const ResizeRequest& request, bool inflate, uint64_t frames,
           Step step) {
    Begin(request, inflate, frames);
    RunSlice(step);
  }
  bool busy() const { return busy_; }

  // Poisons the owner for good: every request from now on finishes at
  // its next slice boundary, flagged quarantined. A quarantined VM may
  // reach its numeric target, but the host memory behind the quarantined
  // frames was never freed: that is degradation, not completion.
  void Quarantine() { quarantined_ = true; }
  bool quarantined() const { return quarantined_; }

  // --- One operation ---------------------------------------------------
  // Runs `attempt` (a callable returning Attempt) until it succeeds, fails
  // permanently, or kMaxAttempts tries are spent, charging the backoff
  // before each retry. Returns whether it succeeded. The attempt reports
  // each failure through Fault(), from inside whatever span it opened.
  template <class F>
  bool Retry(F attempt) {
    for (unsigned attempt_index = 0;; ++attempt_index) {
      const Attempt result = attempt();
      if (result == Attempt::kOk) {
        return true;
      }
      if (result == Attempt::kPermanent || attempt_index + 1 == kMaxAttempts) {
        return false;
      }
      Backoff(attempt_index);
    }
  }
  // Records an observed fault (innermost span, counts; inside a request
  // slice also the request span and outcome) and returns what it means
  // for the attempt.
  Attempt Fault(fault::Kind kind = fault::Kind::kTransient);
  // Records one rollback: work undone after its operation failed.
  void Rollback();

  // Lifetime counts.
  uint64_t faults() const { return faults_; }
  uint64_t retries() const { return retries_; }
  uint64_t timeouts() const { return timeouts_; }

 private:
  // A counter registered on its first increment, never at zero: the
  // telemetry flight stream folds in whatever the registry holds.
  struct LazyCounter {
    const char* name;
    trace::Counter* counter = nullptr;
    void Add();
  };

  void Begin(const ResizeRequest& request, bool inflate, uint64_t frames);
  // Runs one slice of the request in its trace context, then re-arms or
  // finishes it.
  template <class Step>
  void RunSlice(Step& step) {
    trace::ScopedContext request_context(span_.context());
    if (!quarantined_ && !TimedOut()) {
      in_slice_ = true;
      const Slice slice = step();
      in_slice_ = false;
      if (slice == Slice::kMore) {
        sim_->After(0, [this, step = std::move(step)]() mutable {
          RunSlice(step);
        });
        return;
      }
    }
    Finish();
  }
  // Once the deadline has passed, counts the timeout, flags the outcome
  // and returns true.
  bool TimedOut();
  void Finish();
  void Backoff(unsigned retry);
  ResizeOutcome& outcome() { return owner_->outcome_; }

  sim::Simulation* sim_;
  Deflator* owner_;
  CpuAccounting* cpu_;
  LazyCounter fault_count_;
  LazyCounter retry_count_;
  LazyCounter rollback_count_;
  LazyCounter timeout_count_;
  const char* backoff_name_;

  bool busy_ = false;
  bool in_slice_ = false;  // a request slice is running
  bool inflate_ = false;
  bool quarantined_ = false;
  sim::Time deadline_ = 0;  // 0 = no deadline
  std::function<void()> done_;
  std::function<void(const ResizeOutcome&)> on_outcome_;
  trace::RequestSpan span_;

  uint64_t faults_ = 0;
  uint64_t retries_ = 0;
  uint64_t timeouts_ = 0;
};

}  // namespace hyperalloc::hv

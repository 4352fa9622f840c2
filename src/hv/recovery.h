// Fault recovery for every de/inflation backend (DESIGN.md §4.9).
//
// HyperAlloc, virtio-balloon and virtio-mem cross the same host
// boundaries (hypercalls, EPT unmap, IOMMU pin/unpin), and they recover
// from a failed boundary by the same rules: a bounded number of attempts,
// a virtual-time exponential backoff before each retry, and a
// per-request deadline after which the request finishes partially. This
// type holds those rules and everything they account: the lifetime
// counts, the backend's `<backend>.fault*` counters and backoff
// histogram, the innermost and request spans, and the request's
// hv::ResizeOutcome. A backend keeps only what is specific to a boundary:
// how one attempt is made, and what a failed operation leaves to undo.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

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
  // Backoff is charged to `cpu`'s host user time; `outcome` is the
  // backend's hv::Deflator::outcome_.
  Recovery(sim::Simulation* sim, const RecoveryNames& names,
           CpuAccounting* cpu, ResizeOutcome* outcome);
  // Points into its owner: never copied.
  Recovery(const Recovery&) = delete;
  Recovery& operator=(const Recovery&) = delete;

  // --- The request -----------------------------------------------------
  // Starts a request: resets the outcome, arms the deadline
  // (request.deadline_ns after now; 0 = none), keeps the request's
  // callbacks and opens its request span.
  void Begin(const ResizeRequest& request, bool inflate, uint64_t frames);
  bool busy() const { return busy_; }
  // The trace context every slice of the request re-enters.
  trace::SpanContext context() const { return span_.context(); }
  // Checked at the top of each request slice. Once the deadline has
  // passed, counts the timeout, flags the outcome and returns true; the
  // slice then finishes the request where it stands (partial reclaim).
  bool TimedOut();
  // Ends the request at `achieved_bytes`: fills the outcome, closes the
  // request span, then fires `on_outcome` and `done`. A quarantined VM
  // may reach its numeric target, but the host memory behind the
  // quarantined frames was never freed: that is degradation, not
  // completion.
  void Finish(uint64_t achieved_bytes, bool quarantined = false);

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
  // Records an observed fault (innermost span, request span, counts) and
  // returns what it means for the attempt.
  Attempt Fault(fault::Kind kind = fault::Kind::kTransient);
  // Records one rollback: work undone after its operation failed.
  // `of_request` = false keeps it out of the request's outcome (work the
  // request did not ask for, such as a free-page report).
  void Rollback(bool of_request = true);

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

  void Backoff(unsigned retry);

  sim::Simulation* sim_;
  CpuAccounting* cpu_;
  ResizeOutcome* outcome_;
  LazyCounter fault_count_;
  LazyCounter retry_count_;
  LazyCounter rollback_count_;
  LazyCounter timeout_count_;
  const char* backoff_name_;

  bool busy_ = false;
  bool inflate_ = false;
  sim::Time deadline_ = 0;  // 0 = no deadline
  std::function<void()> done_;
  std::function<void(const ResizeOutcome&)> on_outcome_;
  trace::RequestSpan span_;

  uint64_t faults_ = 0;
  uint64_t retries_ = 0;
  uint64_t timeouts_ = 0;
};

}  // namespace hyperalloc::hv

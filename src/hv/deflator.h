// Common interface of all VM de/inflation techniques (Table 1 of the
// paper): virtio-balloon (4 KiB), virtio-balloon-huge (2 MiB, Hu et al.),
// virtio-mem (Hildenbrand & Schulz), and HyperAlloc.
//
// Limit changes are *asynchronous*: the driver processes work in slices
// interleaved with the rest of the simulation (workload events, samplers),
// exactly as a real driver kthread interleaves with the workload. `done`
// fires in virtual time when the request completes (possibly partially —
// check limit_bytes()).
#pragma once

#include <cstdint>
#include <functional>

#include "src/base/types.h"

namespace hyperalloc::hv {

// CPU-time bookkeeping for the footprint experiments (Fig. 7's user/system
// columns): guest driver work, QEMU user-space work, and host kernel work
// (syscalls, page faults).
struct CpuAccounting {
  uint64_t guest_ns = 0;
  uint64_t host_user_ns = 0;
  uint64_t host_sys_ns = 0;

  uint64_t total() const { return guest_ns + host_user_ns + host_sys_ns; }
};

// Static capabilities of one de/inflation technique (Table 1 columns),
// returned as a value so call sites take one consistent reading instead
// of four virtual calls.
struct DeflatorCaps {
  const char* name = "?";
  bool dma_safe = false;
  bool supports_auto = false;
  uint64_t granularity_bytes = kFrameSize;
};

// How far a resize request got and what it cost in recovery work — the
// partial-reclaim degradation contract (DESIGN.md §4.9): a request that
// cannot complete still leaves the backend's state machine legal and
// reports its progress here instead of pretending success.
struct ResizeOutcome {
  uint64_t target_bytes = 0;
  // The limit actually reached when the request finished.
  uint64_t achieved_bytes = 0;
  // achieved == target (no degradation).
  bool complete = false;
  // The per-request deadline expired before completion.
  bool timed_out = false;
  // The VM entered (or already was in) fault quarantine.
  bool quarantined = false;
  // Injected faults observed, retries spent, and rollbacks performed
  // while serving this request.
  uint64_t faults = 0;
  uint64_t retries = 0;
  uint64_t rollbacks = 0;
};

// One asynchronous limit-change request. A plain struct rather than a
// parameter list so future orchestration policies can attach deadlines,
// priority classes, or partial-progress callbacks without touching every
// backend again.
struct ResizeRequest {
  // The (hard) memory limit to move toward.
  uint64_t target_bytes = 0;
  // Per-request virtual-time budget, relative to submission. When it
  // expires the backend finishes partially (outcome.timed_out). 0 means
  // no deadline. The fleet policy layer attaches explicit deadlines here
  // so one slow VM cannot stall a control epoch indefinitely.
  uint64_t deadline_ns = 0;
  // Fires in virtual time when the operation has gone as far as it can
  // (possibly partially — check limit_bytes()). May be empty.
  std::function<void()> done{};
  // Optional partial-progress callback: fires just before `done` with
  // how far the request got (also readable via last_outcome()).
  std::function<void(const ResizeOutcome&)> on_outcome{};
};

// Huge-frame reclaim split (DESIGN.md §4.14): how the huge frames a
// backend reclaimed were invalidated on the host — untouched (nothing
// was mapped), via a single 2 MiB EPT entry, or via 512 individual 4 KiB
// entries. Backends without huge-granular reclaim report all-zero.
struct HugeReclaimStats {
  uint64_t untouched = 0;
  uint64_t via_2m = 0;
  uint64_t via_4k = 0;

  uint64_t total() const { return untouched + via_2m + via_4k; }
  // Fraction reclaimed without per-4K EPT work; 1.0 when idle.
  double Share() const {
    return total() == 0 ? 1.0
                        : static_cast<double>(untouched + via_2m) /
                              static_cast<double>(total());
  }
};

class Deflator {
 public:
  virtual ~Deflator() = default;

  // Static capability matrix entry for this technique.
  virtual DeflatorCaps caps() const = 0;

  // Huge-frame reclaim share (§4.14). Default: no huge-granular path.
  virtual HugeReclaimStats huge_reclaim() const { return {}; }

  // Starts moving the VM's memory limit toward `request.target_bytes`.
  // Must not be called while a previous request is still in flight
  // (check busy()).
  virtual void Request(const ResizeRequest& request) = 0;
  virtual uint64_t limit_bytes() const = 0;
  virtual bool busy() const = 0;

  // Automatic (soft) reclamation, where supported.
  virtual void StartAuto() {}
  virtual void StopAuto() {}

  virtual const CpuAccounting& cpu() const = 0;

  // The outcome of the most recently finished request (all-zero before
  // the first request completes). hv::Recovery fills `outcome_` as a
  // backend's request finishes; the base class only stores it.
  const ResizeOutcome& last_outcome() const { return outcome_; }

 protected:
  friend class Recovery;
  ResizeOutcome outcome_;
};

}  // namespace hyperalloc::hv

// Deterministic, seed-driven fault injection for every fallible boundary
// of the de/inflation path: install hypercalls, balloon/virtio-mem queue
// ops, EPT/IOMMU map/unmap + flush, and host-pool admission.
//
// Determinism contract: whether the N-th operation at a given site fails
// is a pure function of (plan.seed, site, N) — a SplitMix64-style hash
// compared against the site's probability, plus an optional explicit step
// schedule. The per-site operation index is an atomic counter, so the
// schedule is byte-identical across runs for any given per-site operation
// order, regardless of thread interleaving between sites. A logged seed
// therefore reproduces the exact failure pattern (README "Fault
// injection").
//
// The injector only *decides*. Bounded retry with virtual-time
// exponential backoff and the per-request deadline live in hv::Recovery
// (src/hv/recovery.h); rollback and quarantine live at the call sites
// (DESIGN.md §4.9).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/check.h"

namespace hyperalloc::fault {

// Every injection site, one per fallible boundary. Kept dense so the
// injector can hold per-site state in a flat array.
enum class Site : uint8_t {
  kInstallHypercall,  // HyperAlloc install hypercall (core/hyperalloc.cc)
  kEptMap,            // EPT populate/map (hv/ept.cc)
  kEptUnmap,          // EPT unmap / madvise(DONTNEED) (hv/ept.cc)
  kIommuPin,          // VFIO map + pin (hv/iommu.h)
  kIommuUnpin,        // VFIO unmap + IOTLB flush (hv/iommu.h)
  kBalloonHypercall,  // virtio-balloon virtqueue kick (balloon/)
  kVmemPlug,          // virtio-mem plug request (vmem/)
  kVmemUnplug,        // virtio-mem unplug request (vmem/)
  kHostReserve,       // host frame-pool admission (hv/host_memory.h)
};
inline constexpr unsigned kNumSites = 9;

const char* Name(Site site);
bool SiteFromName(std::string_view name, Site* site);

// The typed error taxonomy. Transient faults are worth retrying (EAGAIN,
// a full virtqueue, a transiently exhausted pool); permanent faults are
// not (a wedged device, an unrecoverable mapping error) and push the
// affected frames toward quarantine. Timeouts are not a Kind: they arise
// at the recovery layer when retries/backoff exceed the request deadline.
enum class Kind : uint8_t { kTransient, kPermanent };

const char* Name(Kind kind);

// Per-site failure specification.
struct SiteSpec {
  // Bernoulli per-operation failure probability in [0, 1].
  double probability = 0.0;
  Kind kind = Kind::kTransient;
  // Explicit schedule: 0-based per-site operation indices that fail
  // (in addition to the probabilistic decisions). Must be sorted.
  std::vector<uint64_t> steps;

  bool active() const { return probability > 0.0 || !steps.empty(); }
};

// A full fault plan: one 64-bit seed plus per-site specs. Parseable from
// the --fault-plan spec grammar:
//   plan    := entry (',' entry)*
//   entry   := site ':' probability            e.g. "ept_unmap:0.01"
//            | site '@' step ('@' step)*       e.g. "install@0@7"
//            | site ':' probability '!'        '!' = permanent
//            | site '@' step '!'
//            | "all" ':' probability           every site
// Site names: install, ept_map, ept_unmap, iommu_pin, iommu_unpin,
// balloon_vq, vmem_plug, vmem_unplug, host_reserve.
struct Plan {
  uint64_t seed = 0;
  std::array<SiteSpec, kNumSites> sites;

  SiteSpec& spec(Site site) { return sites[static_cast<unsigned>(site)]; }
  const SiteSpec& spec(Site site) const {
    return sites[static_cast<unsigned>(site)];
  }

  bool enabled() const {
    for (const SiteSpec& s : sites) {
      if (s.active()) {
        return true;
      }
    }
    return false;
  }

  // Parses the spec grammar above. Returns false (and fills *error) on a
  // malformed spec; *plan keeps its seed but gets fresh site specs.
  static bool Parse(const std::string& spec, Plan* plan, std::string* error);

  // Round-trippable textual form (for logs: seed + active sites).
  std::string ToString() const;
};

// Thread-safe decision engine over a Plan. Each Poll() claims the next
// per-site operation index and evaluates the deterministic decision
// function for it.
class Injector {
 public:
  Injector() = default;  // disabled: every Poll returns nullopt
  explicit Injector(const Plan& plan) : plan_(plan) {
    enabled_ = plan.enabled();
    for (const SiteSpec& s : plan_.sites) {
      for (size_t i = 1; i < s.steps.size(); ++i) {
        HA_CHECK(s.steps[i - 1] < s.steps[i]);  // sorted, unique
      }
    }
  }

  bool enabled() const { return enabled_; }
  const Plan& plan() const { return plan_; }

  // Consult at a fallible boundary: claims this site's next operation
  // index and returns the failure kind if that operation is scheduled to
  // fail, nullopt otherwise.
  std::optional<Kind> Poll(Site site) {
    State& s = state_[static_cast<unsigned>(site)];
    const uint64_t index =
        s.ops.fetch_add(1, std::memory_order_relaxed);
    if (!enabled_) {
      return std::nullopt;
    }
    const SiteSpec& spec = plan_.spec(site);
    if (!spec.active() || !Decide(site, index, spec)) {
      return std::nullopt;
    }
    s.injected.fetch_add(1, std::memory_order_relaxed);
    return spec.kind;
  }

  // Pure decision function — also usable to precompute a schedule
  // (tests assert byte-identical schedules this way).
  bool WouldFail(Site site, uint64_t index) const {
    const SiteSpec& spec = plan_.spec(site);
    return spec.active() && Decide(site, index, spec);
  }

  uint64_t ops(Site site) const {
    return state_[static_cast<unsigned>(site)].ops.load(
        std::memory_order_relaxed);
  }
  uint64_t injected(Site site) const {
    return state_[static_cast<unsigned>(site)].injected.load(
        std::memory_order_relaxed);
  }
  uint64_t injected_total() const {
    uint64_t total = 0;
    for (const State& s : state_) {
      total += s.injected.load(std::memory_order_relaxed);
    }
    return total;
  }

  // Quarantine trigger hook. The recovery layers that decide to
  // quarantine (core/hyperalloc.cc frame/VM escalation) notify the VM's
  // injector; pollers above the VM — the fleet engine, at the end of each
  // epoch slice — read the counts back without reaching into backend
  // internals. Notifications happen on the VM's own simulation thread and
  // the reads on the worker that just ran it to the barrier, so the
  // counts are determinism-safe.
  // `mapped`: the frame still holds host memory (it was quarantined
  // before its unmap succeeded).
  void NotifyQuarantineFrame(bool mapped) {
    quarantined_frames_.fetch_add(1, std::memory_order_relaxed);
    if (mapped) {
      quarantined_mapped_frames_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void NotifyQuarantineVm() {
    quarantined_vm_.store(true, std::memory_order_relaxed);
  }
  uint64_t quarantined_frames() const {
    return quarantined_frames_.load(std::memory_order_relaxed);
  }
  uint64_t quarantined_mapped_frames() const {
    return quarantined_mapped_frames_.load(std::memory_order_relaxed);
  }
  bool quarantined_vm() const {
    return quarantined_vm_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;

  // SplitMix64 finalizer (same mixing constants as base/rng.h).
  static uint64_t Mix(uint64_t x) {
    x += kGolden;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  bool Decide(Site site, uint64_t index, const SiteSpec& spec) const {
    for (const uint64_t step : spec.steps) {
      if (step == index) {
        return true;
      }
      if (step > index) {
        break;  // sorted
      }
    }
    if (spec.probability <= 0.0) {
      return false;
    }
    const uint64_t salted =
        Mix(plan_.seed ^ ((static_cast<uint64_t>(site) + 1) * kGolden));
    const uint64_t h = Mix(salted ^ index);
    // 53 uniform mantissa bits -> [0, 1).
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    return u < spec.probability;
  }

  struct alignas(64) State {
    std::atomic<uint64_t> ops{0};
    std::atomic<uint64_t> injected{0};
  };

  bool enabled_ = false;
  Plan plan_;
  std::array<State, kNumSites> state_;
  std::atomic<uint64_t> quarantined_frames_{0};
  std::atomic<uint64_t> quarantined_mapped_frames_{0};
  std::atomic<bool> quarantined_vm_{false};
};

// Null-safe convenience wrapper: the idiom every call site uses, so an
// unconfigured component (injector == nullptr) costs one branch.
inline std::optional<Kind> Poll(Injector* injector, Site site) {
  if (injector == nullptr || !injector->enabled()) {
    return std::nullopt;
  }
  return injector->Poll(site);
}

}  // namespace hyperalloc::fault

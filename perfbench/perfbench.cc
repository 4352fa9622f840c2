// Host-time benchmark of the HyperAlloc de/inflation path.
//
// Two workloads (README.md says why each was chosen):
//   e1_resize      the paper's E1 (Fig. 4) on one 20 GiB VM, cycled;
//   fleet_diurnal  512 x 64 MiB VMs with diurnal demand and automatic
//                  reclamation, resized by the proportional-share policy.
//
// Only calls into public functions of each layer are timed, from here:
// a Deflator decorator (Request -> done), a ResizePolicy decorator
// (epoch boundaries), MemoryPool region allocations, benchmark-driven
// Simulation::Step loops, and FleetEngine::Run. A traced run (--trace 1)
// reads the span records and registry counters the program already
// emits and reports per-layer figures instead.
//
// Every simulated (virtual-time) output is checked against the values
// recorded in oracle.h on every run; a mismatch marks the run incorrect
// and no numbers are printed.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/candidates.h"
#include "bench/fleet_bench.h"
#include "perfbench/oracle.h"
#include "perfbench/stats.h"
#include "src/fleet/agents.h"
#include "src/fleet/arrival.h"
#include "src/fleet/fleet.h"
#include "src/trace/span.h"
#include "src/trace/trace.h"
#include "src/workloads/memory_pool.h"

#if !HYPERALLOC_TRACE
#error "perfbench reads spans and counters: build with HYPERALLOC_TRACE=ON"
#endif

namespace perfbench {
namespace {

namespace ha = hyperalloc;
using ha::kFrameSize;
using ha::kGiB;
using ha::kHugeSize;
using ha::kMiB;

uint64_t HostNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------
// Run-wide bookkeeping
// ---------------------------------------------------------------------

struct Failure {
  bool correct = true;
  std::vector<std::string> why;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      if (why.size() < 16) {
        why.push_back(what);
      }
    }
  }
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

std::string U(uint64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------------
// Resize timing decorator (installed over MakeVmBundle / VmFactory output)
// ---------------------------------------------------------------------

struct ResizeSample {
  uint64_t host_ns = 0;
  uint64_t huge = 0;  // 2 MiB frames the limit moved by
  bool shrink = false;
  bool failed = false;         // timed out, rolled back or quarantined
  bool stopped_short = false;  // guest held the memory: a policy outcome
};

// Forwards every call to the wrapped backend and records each request's
// host time. A request that finishes inside Request() is timed from the
// call to `done`. One that goes on in later slices is timed inside
// Request() plus from the moment the VM's simulation resumes to `done`,
// so that a fleet request does not also count the barrier and the other
// VMs run before this one. A no-op marker event scheduled just before
// the request (and so ahead of its slices at the same virtual time)
// stamps that moment; the digest checks prove it changes no virtual
// output.
class TimedDeflator final : public ha::hv::Deflator {
 public:
  TimedDeflator(std::unique_ptr<ha::hv::Deflator> inner,
                ha::sim::Simulation* sim, const std::atomic<bool>* recording)
      : inner_(std::move(inner)), sim_(sim), recording_(recording) {}

  ha::hv::DeflatorCaps caps() const override { return inner_->caps(); }
  ha::hv::HugeReclaimStats huge_reclaim() const override {
    return inner_->huge_reclaim();
  }
  uint64_t limit_bytes() const override { return inner_->limit_bytes(); }
  bool busy() const override { return inner_->busy(); }
  void StartAuto() override { inner_->StartAuto(); }
  void StopAuto() override { inner_->StopAuto(); }
  const ha::hv::CpuAccounting& cpu() const override { return inner_->cpu(); }

  void Request(const ha::hv::ResizeRequest& request) override {
    const uint64_t before = inner_->limit_bytes();
    const bool shrink = request.target_bytes < before;
    resumed_ns_ = 0;
    sim_->At(sim_->now(), [this, id = ++requests_] {
      if (id == requests_) {
        resumed_ns_ = HostNs();
      }
    });
    ha::hv::ResizeRequest wrapped = request;
    wrapped.done = [this, before, shrink, done = request.done] {
      Finish(before, shrink);
      if (done) {
        done();
      }
    };
    in_request_ = true;
    issued_ns_ = HostNs();
    inner_->Request(wrapped);
    returned_ns_ = HostNs();
    in_request_ = false;
  }

  const std::vector<ResizeSample>& samples() const { return samples_; }
  void ClearSamples() { samples_.clear(); }

 private:
  void Finish(uint64_t before, bool shrink) {
    const uint64_t now = HostNs();
    // The fleet reads last_outcome() from inside `done`.
    outcome_ = inner_->last_outcome();
    if (!recording_->load(std::memory_order_relaxed)) {
      return;
    }
    ResizeSample s;
    if (in_request_) {
      s.host_ns = now - issued_ns_;
    } else {
      const uint64_t resumed = resumed_ns_ != 0 ? resumed_ns_ : returned_ns_;
      s.host_ns = (returned_ns_ - issued_ns_) + (now - resumed);
    }
    const uint64_t after = inner_->limit_bytes();
    s.shrink = shrink;
    if (shrink && after < before) {
      s.huge = (before - after) / kHugeSize;
    } else if (!shrink && after > before) {
      s.huge = (after - before) / kHugeSize;
    }
    s.failed = outcome_.timed_out || outcome_.quarantined ||
               outcome_.rollbacks > 0;
    s.stopped_short = !s.failed && !outcome_.complete;
    samples_.push_back(s);
  }

  std::unique_ptr<ha::hv::Deflator> inner_;
  ha::sim::Simulation* sim_;
  const std::atomic<bool>* recording_;
  std::vector<ResizeSample> samples_;
  uint64_t requests_ = 0;
  bool in_request_ = false;
  uint64_t issued_ns_ = 0;
  uint64_t returned_ns_ = 0;
  uint64_t resumed_ns_ = 0;
};

// ---------------------------------------------------------------------
// Span and counter readers (traced runs)
// ---------------------------------------------------------------------

struct SpanTotals {
  uint64_t count = 0;
  uint64_t wall_ns = 0;
  uint64_t self_ns = 0;
  uint64_t frames = 0;
  uint64_t huge_frames = 0;  // in base frames, as the spans carry them
};

// Folds drained span records into per-name totals. Self time is a
// span's wall time minus that of its direct children; children close
// (and so drain) before their parent.
class SpanReader {
 public:
  void Drain() {
    for (const ha::trace::SpanRecord& r :
         ha::trace::SpanTracer::Global().Drain()) {
      const uint64_t wall = r.wall_ns();
      uint64_t children = 0;
      if (auto it = child_wall_.find(r.span_id); it != child_wall_.end()) {
        children = it->second;
        child_wall_.erase(it);
      }
      SpanTotals& t = by_name_[r.name];
      ++t.count;
      t.wall_ns += wall;
      t.self_ns += wall > children ? wall - children : 0;
      t.frames += r.frames;
      t.huge_frames += r.huge_frames;
      if (r.parent_id != 0) {
        child_wall_[r.parent_id] += wall;
      }
    }
  }

  SpanTotals Get(std::string_view name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? SpanTotals{} : it->second;
  }

 private:
  // Span names are string literals, so views of them stay valid.
  std::unordered_map<std::string_view, SpanTotals> by_name_;
  std::unordered_map<uint64_t, uint64_t> child_wall_;
};

std::map<std::string, uint64_t> ReadCounters() {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] :
       ha::trace::CounterRegistry::Global().Counters()) {
    out[name] = value;
  }
  return out;
}

// Counters reported per layer, as exact counts over set-up plus the
// first measured unit (a window that repeats exactly run to run).
constexpr const char* kCounters[] = {
    "llfree.get",          "llfree.get_fail",
    "llfree.fallback_steal", "llfree.put",
    "llfree.get_batch",    "llfree.put_batch",
    "llfree.reserve_tree", "llfree.reclaim_hard",
    "llfree.reclaim_soft", "llfree.return",
    "llfree.install_trigger", "monitor.install",
    "monitor.reclaim_hard", "monitor.reclaim_soft",
    "monitor.return",      "monitor.hypercall",
    "monitor.scan_cache_lines", "ept.map_ops",
    "ept.map_2m",          "ept.unmap_ops",
    "ept.unmap_2m",        "ept.demote_2m",
    "ept.tlb_range_flush", "guest.ept_fault_2m",
    "guest.ept_fault_4k",  "state.installed_to_soft",
    "state.installed_to_hard", "state.soft_to_installed",
    "state.soft_to_hard",  "state.hard_to_soft",
};

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

// What one measured unit (an E1 cycle or a fleet run) left behind. All
// units of a run repeat the same work, part for part.
struct Unit {
  uint64_t host_ns = 0;     // measured phase only
  double virtual_s = 0.0;   // simulated seconds (VM-seconds for the fleet)
  // Host ns of the unit's consecutive parts, which add up to host_ns:
  // the fleet run's epochs (plus the stretches before the first barrier
  // and after the last), or the E1 cycle's four resizes, install and
  // free.
  std::vector<uint64_t> segment_ns;
  std::vector<uint64_t> request_ns;  // host ns of each resize request
};

// What a resize request did; the same in every unit.
struct RequestShape {
  bool shrink = false;
  uint64_t huge = 0;  // 2 MiB frames the limit moved by

  bool operator==(const RequestShape&) const = default;
};

// Host-pool slow-path counts: refills from and drains to the global
// reserve, and raids on other shards' credit (rebalances).
struct HostPoolCounts {
  uint64_t refills = 0;
  uint64_t drains = 0;
  uint64_t rebalances = 0;

  static HostPoolCounts Of(const ha::hv::HostMemory& host) {
    return {host.refills(), host.drains(), host.rebalances()};
  }
  HostPoolCounts operator-(const HostPoolCounts& o) const {
    return {refills - o.refills, drains - o.drains, rebalances - o.rebalances};
  }
  HostPoolCounts& operator+=(const HostPoolCounts& o) {
    refills += o.refills;
    drains += o.drains;
    rebalances += o.rebalances;
    return *this;
  }
};

struct Collected {
  std::vector<double> setup_s;
  std::vector<Unit> units;
  std::vector<RequestShape> requests;  // the first unit's, in order
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t stopped_short = 0;
  // Benchmark-driven simulation steps and the host time of those loops.
  uint64_t steps = 0;
  uint64_t step_ns = 0;
  // MemoryPool region allocations timed from here.
  uint64_t alloc_ns = 0;
  uint64_t alloc_frames = 0;
  // Host-pool slow-path counts over the measured units.
  HostPoolCounts hostpool;
  // Fleet epoch timings (policy decorator).
  std::vector<double> epoch_ms;
  std::vector<double> decide_us;
  // Traced-run comparisons: measured host ns of traced vs untraced units
  // (and, for the fleet, telemetry off).
  std::vector<double> traced_unit_s;
  std::vector<double> untraced_unit_s;
  std::vector<double> telemetry_off_unit_s;
  SpanReader spans;
  std::map<std::string, uint64_t> counters_first_unit;
  uint64_t huge_per_vm = 0;  // what one auto-reclaim pass visits
  // Peak RSS once set-up and the first unit are done: later units reuse
  // that memory, so this does not grow with the number of units run.
  double peak_rss_mib = 0.0;
  std::vector<std::string> info;  // oracle comparisons printed beside
};

// Adds the resize samples of `unit`, which is not yet in c->units, and
// checks that it issued the same requests as the first unit.
void AddSamples(const std::vector<ResizeSample>& samples, Collected* c,
                Unit* unit, Failure* f) {
  std::vector<RequestShape> requests;
  for (const ResizeSample& s : samples) {
    ++c->ops;
    c->failed += s.failed ? 1 : 0;
    c->stopped_short += s.stopped_short ? 1 : 0;
    unit->request_ns.push_back(s.host_ns);
    requests.push_back({s.shrink, s.huge});
  }
  if (c->units.empty()) {
    c->requests = std::move(requests);
  } else {
    f->Check(requests == c->requests,
             "unit " + U(c->units.size()) +
                 " issued other resize requests than the first unit");
  }
}

bool ValidateZones(ha::guest::GuestVm* vm) {
  for (ha::guest::Zone& zone : vm->zones()) {
    if (zone.llfree != nullptr && !zone.llfree->Validate()) {
      return false;
    }
  }
  return true;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// ---------------------------------------------------------------------
// e1_resize
// ---------------------------------------------------------------------

constexpr uint64_t kE1Memory = 20 * kGiB;
constexpr uint64_t kE1Small = 2 * kGiB;
constexpr uint64_t kE1Prepare = 19 * kGiB;
constexpr uint64_t kE1Install = 18 * kGiB;
constexpr unsigned kE1Setups = 3;

struct E1Vm {
  std::unique_ptr<ha::sim::Simulation> sim;
  std::unique_ptr<ha::hv::HostMemory> host;
  std::unique_ptr<ha::guest::GuestVm> vm;
  std::unique_ptr<TimedDeflator> deflator;
  std::unique_ptr<ha::workloads::MemoryPool> pool;
  std::atomic<bool> recording{false};

  ~E1Vm() { ha::trace::Tracer::Global().SetTimeSource(nullptr); }
};

uint64_t TimedAlloc(ha::workloads::MemoryPool* pool, uint64_t bytes,
                    Collected* c) {
  const uint64_t t0 = HostNs();
  const uint64_t region = pool->AllocRegion(bytes, /*thp_fraction=*/0.95, 0);
  c->alloc_ns += HostNs() - t0;
  c->alloc_frames += bytes / kFrameSize;
  return region;
}

// Built exactly as bench_inflate builds it: a HyperAlloc VM from
// MakeVmBundle, then the 19 GiB prepare (written, freed, caches purged).
std::unique_ptr<E1Vm> MakeE1Vm(Collected* c, Failure* f) {
  auto e = std::make_unique<E1Vm>();
  e->sim = std::make_unique<ha::sim::Simulation>();
  const ha::bench::SetupOptions options;  // 20 GiB guest, 64 GiB host
  e->host = std::make_unique<ha::hv::HostMemory>(
      ha::FramesForBytes(options.host_bytes));
  ha::bench::VmBundle bundle = ha::bench::MakeVmBundle(
      e->sim.get(), e->host.get(), ha::bench::Candidate::kHyperAlloc,
      options);
  e->vm = std::move(bundle.vm);
  e->deflator = std::make_unique<TimedDeflator>(
      std::move(bundle.deflator), e->sim.get(), &e->recording);
  e->pool = std::make_unique<ha::workloads::MemoryPool>(e->vm.get());
  const uint64_t prep = TimedAlloc(e->pool.get(), kE1Prepare, c);
  f->Check(prep != 0, "e1: prepare allocation failed");
  e->pool->FreeRegion(prep, 0);
  e->vm->PurgeAllocatorCaches();
  return e;
}

// Drives one limit change to completion; returns its virtual duration.
ha::sim::Time SetLimit(E1Vm* e, uint64_t bytes, Collected* c,
                       SpanReader* spans) {
  const ha::sim::Time start = e->sim->now();
  bool done = false;
  ha::hv::ResizeRequest request;
  request.target_bytes = bytes;
  request.done = [&done] { done = true; };
  e->deflator->Request(request);
  const uint64_t t0 = HostNs();
  uint64_t steps = 0;
  while (!done) {
    if (!e->sim->Step()) {
      break;
    }
    ++steps;
  }
  c->step_ns += HostNs() - t0;
  c->steps += steps;
  if (spans != nullptr) {
    spans->Drain();
  }
  return e->sim->now() - start;
}

// Runs E1 cycles on `e` until `seconds` have passed (at least three),
// checking each against the recorded virtual durations.
void MeasureE1(const Options& o, double seconds, E1Vm* e, Collected* c,
               Failure* f) {
  e->recording.store(true, std::memory_order_relaxed);
  const HostPoolCounts hostpool0 = HostPoolCounts::Of(*e->host);
  const uint64_t begin = HostNs();
  for (unsigned cycle = 0;; ++cycle) {
    const bool traced = o.trace && cycle % 2 == 1;
    ha::trace::SpanTracer::Global().SetEnabled(traced);
    SpanReader* spans = traced ? &c->spans : nullptr;

    Unit unit;
    std::vector<uint64_t> stamps = {HostNs()};
    const ha::sim::Time v0 = e->sim->now();
    E1Durations d;
    d.touched_shrink = SetLimit(e, kE1Small, c, spans);
    stamps.push_back(HostNs());
    d.grow = SetLimit(e, kE1Memory, c, spans);
    stamps.push_back(HostNs());
    d.untouched_shrink = SetLimit(e, kE1Small, c, spans);
    stamps.push_back(HostNs());
    const ha::sim::Time v3 = e->sim->now();
    SetLimit(e, kE1Memory, c, spans);
    stamps.push_back(HostNs());
    const uint64_t install = TimedAlloc(e->pool.get(), kE1Install, c);
    f->Check(install != 0, "e1: install allocation failed");
    d.grow_install = e->sim->now() - v3;
    stamps.push_back(HostNs());
    e->pool->FreeRegion(install, 0);
    if (spans != nullptr) {
      spans->Drain();
    }
    ha::trace::SpanTracer::Global().SetEnabled(false);
    stamps.push_back(HostNs());

    for (size_t i = 1; i < stamps.size(); ++i) {
      unit.segment_ns.push_back(stamps[i] - stamps[i - 1]);
    }
    unit.host_ns = stamps.back() - stamps.front();
    unit.virtual_s = Seconds(e->sim->now() - v0);
    AddSamples(e->deflator->samples(), c, &unit, f);
    e->deflator->ClearSamples();
    const bool first = c->units.empty();
    c->units.push_back(std::move(unit));
    (traced ? c->traced_unit_s : c->untraced_unit_s)
        .push_back(Seconds(c->units.back().host_ns));
    if (first) {
      c->counters_first_unit = ReadCounters();
      c->peak_rss_mib = PeakRssMib();
    }

    // E1 has no random input, so the exact oracle holds on every seed.
    const E1Durations want = E1Expected(cycle);
    f->Check(d == want, "e1: cycle " + U(cycle) + " virtual durations " +
                            d.ToString() + " != recorded " + want.ToString());
    if (first) {
      c->info.push_back("e1 cycle 0 virtual durations " + d.ToString());
      c->info.push_back(E1PaperComparison(d));
    }
    if ((HostNs() - begin >= static_cast<uint64_t>(seconds * 1e9) &&
         cycle >= 2) ||
        cycle + 1 == kE1RecordedCycles) {
      break;
    }
  }
  c->hostpool += HostPoolCounts::Of(*e->host) - hostpool0;
  f->Check(ValidateZones(e->vm.get()), "e1: LLFree::Validate failed");
  f->Check(e->host->used_frames() * kFrameSize == e->vm->rss_bytes(),
           "e1: host frames in use (" + U(e->host->used_frames()) +
               ") != guest RSS frames (" + U(e->vm->rss_bytes() / kFrameSize) +
               ")");
}

// Builds the VM several times (traced runs once) and measures cycles on
// each build for an equal share of the run's seconds. Alternating set-up
// and measurement spreads the measured cycles over the whole run, so a
// slow phase of the host rarely covers all of them.
void RunE1(const Options& o, Collected* c, Failure* f) {
  const unsigned setups = o.trace ? 1 : kE1Setups;
  for (unsigned i = 0; i < setups; ++i) {
    const uint64_t t0 = HostNs();
    const std::unique_ptr<E1Vm> e = MakeE1Vm(c, f);
    c->setup_s.push_back(Seconds(HostNs() - t0));
    MeasureE1(o, o.seconds / setups, e.get(), c, f);
  }
}

// ---------------------------------------------------------------------
// fleet_diurnal
// ---------------------------------------------------------------------

// Times ResizePolicy::Decide and the epoch boundaries around it; the
// first call also switches resize recording on (earlier requests are
// the engine's set-up shrinks).
class TimedPolicy final : public ha::fleet::ResizePolicy {
 public:
  TimedPolicy(std::unique_ptr<ha::fleet::ResizePolicy> inner,
              std::atomic<bool>* recording, SpanReader* spans)
      : inner_(std::move(inner)), recording_(recording), spans_(spans) {}

  const char* name() const override { return inner_->name(); }

  void Decide(const ha::fleet::PoolSignal& pool,
              const std::vector<ha::fleet::VmSignal>& vms,
              std::vector<ha::fleet::ResizeAction>* actions) override {
    if (spans_ != nullptr) {
      spans_->Drain();  // workers are quiesced at the barrier
    }
    const uint64_t start = HostNs();
    if (!starts.empty()) {
      epoch_ms.push_back(static_cast<double>(start - starts.back()) / 1e6);
    }
    starts.push_back(start);
    recording_->store(true, std::memory_order_relaxed);
    inner_->Decide(pool, vms, actions);
    decide_us.push_back(static_cast<double>(HostNs() - start) / 1e3);
  }

  // Host ns at each call, host ms between consecutive barriers, and
  // host us inside Decide.
  std::vector<uint64_t> starts;
  std::vector<double> epoch_ms;
  std::vector<double> decide_us;

 private:
  std::unique_ptr<ha::fleet::ResizePolicy> inner_;
  std::atomic<bool>* recording_;
  SpanReader* spans_;
};

// Everything FleetEngine's constructor takes, before the timing
// decorators go on.
struct FleetSpec {
  ha::fleet::FleetConfig config;
  ha::fleet::VmFactory vm_factory;
  ha::fleet::AgentFactory agent_factory;
  std::function<std::unique_ptr<ha::fleet::ResizePolicy>()> make_policy;
};

struct FleetRun {
  uint64_t digest = 0;
  uint64_t measured_ns = 0;
  std::vector<uint64_t> segment_ns;  // split at each call of the policy
  uint64_t resizes = 0;
  std::vector<ResizeSample> samples;
  std::vector<double> epoch_ms;
  std::vector<double> decide_us;
  HostPoolCounts hostpool;
  uint64_t oom_events = 0;
  bool valid = true;
  bool conserved = true;
};

// Runs `spec` with TimedDeflator installed through the VM factory and
// TimedPolicy around the policy.
FleetRun RunTimedFleet(const FleetSpec& spec, SpanReader* spans) {
  std::atomic<bool> recording{false};
  std::vector<TimedDeflator*> deflators;
  ha::fleet::VmFactory factory =
      [&spec, &recording, &deflators](
          ha::sim::Simulation* sim, ha::hv::HostMemory* host, uint64_t index,
          const std::string& name) {
        ha::fleet::FleetVmParts parts =
            spec.vm_factory(sim, host, index, name);
        auto timed = std::make_unique<TimedDeflator>(
            std::move(parts.deflator), sim, &recording);
        deflators.push_back(timed.get());
        parts.deflator = std::move(timed);
        return parts;
      };
  auto policy =
      std::make_unique<TimedPolicy>(spec.make_policy(), &recording, spans);
  TimedPolicy* timed_policy = policy.get();

  ha::fleet::FleetEngine engine(spec.config, factory, spec.agent_factory,
                                std::move(policy));
  const uint64_t start = HostNs();
  const ha::fleet::FleetResult result = engine.Run();
  const uint64_t end = HostNs();
  if (spans != nullptr) {
    spans->Drain();
  }

  FleetRun run;
  run.digest = result.fleet_digest;
  run.measured_ns = end - start;
  uint64_t from = start;
  for (const uint64_t at : timed_policy->starts) {
    run.segment_ns.push_back(at - from);
    from = at;
  }
  run.segment_ns.push_back(end - from);
  run.resizes = result.resizes.size();
  for (TimedDeflator* d : deflators) {
    run.samples.insert(run.samples.end(), d->samples().begin(),
                       d->samples().end());
  }
  run.epoch_ms = std::move(timed_policy->epoch_ms);
  run.decide_us = std::move(timed_policy->decide_us);
  run.hostpool = HostPoolCounts::Of(*engine.host());
  uint64_t rss_frames = 0;
  for (uint64_t i = 0; i < spec.config.vms; ++i) {
    run.valid = run.valid && ValidateZones(engine.vm(i));
    run.oom_events += engine.vm(i)->oom_events();
    rss_frames += engine.vm(i)->rss_bytes() / kFrameSize;
  }
  run.conserved = engine.host()->used_frames() == rss_frames;
  ha::trace::Tracer::Global().SetTimeSource(nullptr);
  return run;
}

// The fleet digest of `spec` run without any decorator.
uint64_t UndecoratedDigest(const FleetSpec& spec) {
  ha::fleet::FleetEngine engine(spec.config, spec.vm_factory,
                                spec.agent_factory, spec.make_policy());
  const uint64_t digest = engine.Run().fleet_digest;
  ha::trace::Tracer::Global().SetTimeSource(nullptr);
  return digest;
}

// A DemandAgent with the monitor's automatic reclamation switched on, so
// the fleet also runs the monitor's periodic scan.
class AutoReclaimDemandAgent final : public ha::fleet::VmAgent {
 public:
  explicit AutoReclaimDemandAgent(const ha::fleet::DemandAgentConfig& config)
      : inner_(config) {}

  void Start(ha::fleet::VmContext* context) override {
    inner_.Start(context);
    context->deflator->StartAuto();
  }
  bool finished() const override { return inner_.finished(); }
  uint64_t demand_bytes() const override { return inner_.demand_bytes(); }
  void OnPressureSpike(uint64_t bytes) override {
    inner_.OnPressureSpike(bytes);
  }

 private:
  ha::fleet::DemandAgent inner_;
};

ha::bench::SetupOptions FleetVmOptions() {
  ha::bench::SetupOptions options;
  options.memory_bytes = kFleetVmBytes;
  return options;
}

// kFleetVms HyperAlloc VMs with diurnal demand on an overcommitted host,
// under the proportional-share policy with its default settings. Every
// VM starts at the policy's floor plus headroom, as bench_fleet starts
// it, so the admission ledger is feasible from the first barrier.
FleetSpec DiurnalSpec(uint64_t seed, unsigned threads, bool telemetry) {
  const ha::fleet::PolicyConfig policy;
  FleetSpec spec;
  spec.config.vms = kFleetVms;
  spec.config.threads = threads;
  spec.config.vm_bytes = kFleetVmBytes;
  spec.config.host_bytes = kFleetHostBytes;
  spec.config.horizon = kFleetHorizon;
  spec.config.record_series = false;
  spec.config.initial_limit_bytes =
      policy.min_limit_bytes + policy.headroom_bytes;
  spec.config.telemetry.enabled = telemetry;
  spec.vm_factory = ha::bench::MakeFleetVmFactory(
      ha::bench::Candidate::kHyperAlloc, FleetVmOptions());

  ha::fleet::ArrivalConfig arrival;
  arrival.kind = ha::fleet::ArrivalKind::kDiurnal;
  arrival.horizon = kFleetHorizon;
  arrival.seed = seed;
  arrival.peak_bytes = std::min(arrival.peak_bytes, kFleetVmBytes);
  std::shared_ptr<ha::fleet::ArrivalProcess> process =
      ha::fleet::MakeArrivalProcess(arrival);
  spec.agent_factory = [process](uint64_t index) {
    ha::fleet::DemandAgentConfig agent;
    agent.trace = process->Generate(index);
    return std::make_unique<AutoReclaimDemandAgent>(agent);
  };
  spec.make_policy = [policy] {
    return ha::bench::MakePolicyByName("proportional-share", policy);
  };
  return spec;
}

// Building the fleet's VMs takes about a millisecond, so set-up is timed
// this many times before every unit, which spreads the set-ups over the
// whole run as the units are.
constexpr unsigned kFleetSetupsPerUnit = 6;

// Host time to build the fleet's VMs (each on its own simulation, all on
// one host pool, as the engine builds them). The VMs are torn down
// untimed, as the engine's are.
void TimeFleetSetup(const FleetSpec& spec, Collected* c) {
  for (unsigned i = 0; i < kFleetSetupsPerUnit; ++i) {
    const uint64_t t0 = HostNs();
    auto host = std::make_unique<ha::hv::HostMemory>(
        ha::FramesForBytes(spec.config.host_bytes));
    std::vector<std::unique_ptr<ha::sim::Simulation>> sims;
    std::vector<ha::fleet::FleetVmParts> parts;
    for (uint64_t vm = 0; vm < spec.config.vms; ++vm) {
      sims.push_back(std::make_unique<ha::sim::Simulation>());
      parts.push_back(
          spec.vm_factory(sims.back().get(), host.get(), vm, "vm" + U(vm)));
    }
    c->setup_s.push_back(Seconds(HostNs() - t0));
  }
  ha::trace::Tracer::Global().SetTimeSource(nullptr);
}

void RunFleet(const Options& o, Collected* c, Failure* f) {
  // Fleet runs repeat for the run's time. Traced runs rotate units with
  // tracing off, tracing on, and telemetry off.
  std::vector<uint64_t> digests;
  const uint64_t begin = HostNs();
  for (unsigned i = 0;; ++i) {
    const unsigned kind = o.trace ? i % 3 : 0;
    const FleetSpec spec =
        DiurnalSpec(o.seed, kFleetThreads, /*telemetry=*/kind != 2);
    if (!o.trace) {
      TimeFleetSetup(spec, c);
    }
    ha::trace::SpanTracer::Global().SetEnabled(kind == 1);
    const FleetRun run = RunTimedFleet(spec, kind == 1 ? &c->spans : nullptr);
    ha::trace::SpanTracer::Global().SetEnabled(false);

    Unit unit;
    unit.host_ns = run.measured_ns;
    unit.virtual_s = static_cast<double>(spec.config.vms) *
                     Seconds(spec.config.horizon);
    unit.segment_ns = run.segment_ns;
    f->Check(c->units.empty() ||
                 unit.segment_ns.size() == c->units.front().segment_ns.size(),
             "fleet: run " + U(i) + " had another number of epochs");
    AddSamples(run.samples, c, &unit, f);
    c->units.push_back(unit);
    c->hostpool += run.hostpool;
    c->failed += run.oom_events;
    if (kind == 0) {
      c->epoch_ms.insert(c->epoch_ms.end(), run.epoch_ms.begin(),
                         run.epoch_ms.end());
      c->decide_us.insert(c->decide_us.end(), run.decide_us.begin(),
                          run.decide_us.end());
      c->untraced_unit_s.push_back(Seconds(run.measured_ns));
    } else if (kind == 1) {
      c->traced_unit_s.push_back(Seconds(run.measured_ns));
    } else {
      c->telemetry_off_unit_s.push_back(Seconds(run.measured_ns));
    }
    if (i == 0) {
      c->counters_first_unit = ReadCounters();
      c->peak_rss_mib = PeakRssMib();
      c->info.push_back("fleet digest " + Hex(run.digest) + ", " +
                        U(run.resizes) + " resizes per run");
    }
    digests.push_back(run.digest);

    f->Check(run.digest == digests.front(),
             "fleet: run " + U(i) + " digest " + Hex(run.digest) +
                 " != first run " + Hex(digests.front()));
    f->Check(run.resizes == run.samples.size(),
             "fleet: " + U(run.samples.size()) + " timed resizes != " +
                 U(run.resizes) + " resize records");
    f->Check(run.valid, "fleet: LLFree::Validate failed");
    f->Check(run.conserved, "fleet: host frames in use != sum of guest RSS");
    if (HostNs() - begin >= static_cast<uint64_t>(o.seconds * 1e9) &&
        i + 1 >= 3) {
      break;
    }
  }
  c->huge_per_vm = kFleetVmBytes / kHugeSize;

  // Outside the timed runs: an undecorated engine run of the same fleet
  // on kCheckThreads worker threads must leave the same digest. This
  // checks both that the decorators change no virtual output and that
  // the run does not depend on the thread count.
  const uint64_t reference =
      UndecoratedDigest(DiurnalSpec(o.seed, kCheckThreads, true));
  f->Check(reference == digests.front(),
           "fleet: decorated " + U(kFleetThreads) + "-thread digest " +
               Hex(digests.front()) + " != undecorated " + U(kCheckThreads) +
               "-thread digest " + Hex(reference));
  if (o.seed == kDefaultSeed) {
    f->Check(digests.front() == kFleetDigest,
             "fleet: digest " + Hex(digests.front()) + " != recorded " +
                 Hex(kFleetDigest));
  }
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) >= 0x20) {
      out += ch;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Every host time the end-to-end metrics report is estimated part by
// part: each unit part (a fleet epoch, an E1 resize or install, a resize
// request) is repeated once per unit of the run, and its estimate is the
// median of the fastest tenth of those repetitions. On a shared host the
// speed moves in bursts and phases that slow identical units by up to
// 2.5x; a median over whole units moved with how much of the run a slow
// phase covered, while a part is rarely slow in all its repetitions.
// The run's set-ups are estimated the same way.
constexpr double kFastestShare = 0.1;

// The tail reported is at most p90. Above it the fleet's requests are
// small shrinks that take 1.3-3 us instead of 0.5 us, and they slow down
// far more than the rest when the host is busy: over five 30 s runs of
// one build on a shared 4-core host, p99 read 1.66-2.18 us, p95
// 1.26-1.61 us and p90 1.02-1.20 us.
constexpr double kTailCap = 0.9;

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double PartEstimate(const std::vector<Unit>& units,
                    std::vector<uint64_t> Unit::*part, size_t index) {
  std::vector<double> repetitions;
  for (const Unit& u : units) {
    repetitions.push_back(static_cast<double>((u.*part)[index]));
  }
  return FastestMedian(std::move(repetitions), kFastestShare);
}

// A unit as the part estimates add up.
struct Reported {
  double host_s = 0.0;
  double virtual_s = 0.0;
  std::vector<double> request_ms;  // one per request of a unit
  std::optional<Tail> tail;        // every request counted once per unit
  double shrink_ns = 0.0, grow_ns = 0.0;
  uint64_t shrink_huge = 0, grow_huge = 0;
};

Reported Report(const Collected& c) {
  Reported r;
  if (c.units.empty()) {
    return r;
  }
  const Unit& first = c.units.front();
  std::vector<double> virtual_s;
  for (const Unit& u : c.units) {
    if (u.segment_ns.size() != first.segment_ns.size() ||
        u.request_ns.size() != c.requests.size()) {
      return Reported{};  // already reported as incorrect
    }
    virtual_s.push_back(u.virtual_s);
  }
  r.virtual_s = Median(virtual_s);
  for (size_t i = 0; i < first.segment_ns.size(); ++i) {
    r.host_s += PartEstimate(c.units, &Unit::segment_ns, i) / 1e9;
  }
  for (size_t i = 0; i < c.requests.size(); ++i) {
    const double ns = PartEstimate(c.units, &Unit::request_ns, i);
    r.request_ms.push_back(ns / 1e6);
    if (c.requests[i].shrink) {
      r.shrink_ns += ns;
      r.shrink_huge += c.requests[i].huge;
    } else {
      r.grow_ns += ns;
      r.grow_huge += c.requests[i].huge;
    }
  }
  r.tail = TailPercentile(r.request_ms, 10, kTailCap, c.units.size());
  return r;
}

std::vector<Metric> EndToEnd(const Collected& c, const Reported& r,
                             Failure* f) {
  const std::optional<Tail>& tail = r.tail;
  const std::optional<double> reclaim = NsPerHuge(r.shrink_ns, r.shrink_huge);
  const std::optional<double> ret = NsPerHuge(r.grow_ns, r.grow_huge);
  f->Check(r.host_s > 0.0, "no unit was measured");
  f->Check(tail.has_value(), "too few resize samples for a tail");
  f->Check(reclaim.has_value(), "no huge frame was reclaimed");
  f->Check(ret.has_value(), "no huge frame was returned");
  return {
      {"setup_s", FastestMedian(c.setup_s, kFastestShare), "s"},
      {"vsec_per_s", Ratio(r.virtual_s, r.host_s), "vs/s"},
      {"resize_ms_p50", Median(r.request_ms), "ms"},
      {"resize_ms_tail", tail ? tail->value : 0.0, "ms"},
      {"reclaim_ns_per_huge", reclaim.value_or(0.0), "ns"},
      {"return_ns_per_huge", ret.value_or(0.0), "ns"},
      {"peak_rss_mib", c.peak_rss_mib, "MiB"},
  };
}

double OverheadPct(const std::vector<double>& with,
                   const std::vector<double>& without) {
  if (with.empty() || without.empty()) {
    return 0.0;
  }
  return (FastestMedian(with, kFastestShare) /
              FastestMedian(without, kFastestShare) -
          1.0) *
         100.0;
}

std::vector<Metric> PerLayer(const Collected& c, uint64_t dropped) {
  const auto& k = c.counters_first_unit;
  auto count = [&k](const char* name) {
    const auto it = k.find(name);
    return it == k.end() ? 0.0 : static_cast<double>(it->second);
  };
  const SpanReader& s = c.spans;
  auto per_huge = [](uint64_t ns, uint64_t base_frames) {
    return Ratio(static_cast<double>(ns),
                 static_cast<double>(base_frames) /
                     static_cast<double>(ha::kFramesPerHuge));
  };
  const SpanTotals shrink_slice = s.Get("monitor.shrink_slice");
  const SpanTotals reclaim = s.Get("llfree.reclaim_huge");
  const SpanTotals grow_slice = s.Get("monitor.grow_slice");
  const SpanTotals mark = s.Get("llfree.mark_returned");
  const SpanTotals install = s.Get("monitor.install");
  const SpanTotals scan = s.Get("monitor.auto_reclaim_pass");
  const SpanTotals unmap = s.Get("ept.unmap_run");
  const SpanTotals populate = s.Get("ept.populate");
  const double units = static_cast<double>(c.units.size());

  const std::optional<Tail> epoch_tail = TailPercentile(c.epoch_ms);
  std::vector<Metric> out = {
      {"llfree.get_fail_ratio",
       Ratio(count("llfree.get_fail"), count("llfree.get")), "ratio"},
      {"llfree.fallback_steal_ratio",
       Ratio(count("llfree.fallback_steal"), count("llfree.get")), "ratio"},
      {"guest.alloc_ns_per_frame",
       Ratio(static_cast<double>(c.alloc_ns),
             static_cast<double>(c.alloc_frames)),
       "ns"},
      {"core.shrink_ns_per_huge",
       per_huge(shrink_slice.self_ns + reclaim.self_ns, reclaim.huge_frames),
       "ns"},
      {"core.grow_ns_per_huge",
       per_huge(grow_slice.self_ns + mark.self_ns, mark.huge_frames), "ns"},
      {"core.install_ns",
       Ratio(static_cast<double>(install.wall_ns),
             static_cast<double>(install.count)),
       "ns"},
      {"core.scan_ns_per_huge",
       Ratio(static_cast<double>(scan.self_ns),
             static_cast<double>(scan.count * c.huge_per_vm)),
       "ns"},
      {"hv.ept_unmap_ns_per_huge", per_huge(unmap.self_ns, unmap.frames),
       "ns"},
      {"hv.ept_populate_ns_per_huge",
       per_huge(populate.self_ns, populate.frames), "ns"},
      {"hv.hostpool_refills",
       Ratio(static_cast<double>(c.hostpool.refills), units), "count"},
      {"hv.hostpool_drains",
       Ratio(static_cast<double>(c.hostpool.drains), units), "count"},
      {"hv.hostpool_rebalances",
       Ratio(static_cast<double>(c.hostpool.rebalances), units), "count"},
      {"fleet.epoch_ms_p50", Median(c.epoch_ms), "ms"},
      {"fleet.epoch_ms_tail", epoch_tail ? epoch_tail->value : 0.0, "ms"},
      {"fleet.policy_us_per_epoch", Median(c.decide_us), "us"},
      {"telemetry.overhead_pct",
       OverheadPct(c.untraced_unit_s, c.telemetry_off_unit_s), "%"},
      {"sim.host_ns_per_event",
       Ratio(static_cast<double>(c.step_ns), static_cast<double>(c.steps)),
       "ns"},
      {"trace.overhead_pct",
       OverheadPct(c.traced_unit_s, c.untraced_unit_s), "%"},
      {"trace.dropped_spans", static_cast<double>(dropped), "count"},
  };
  for (const char* name : kCounters) {
    out.push_back({std::string("counter.") + name, count(name), "count"});
  }
  return out;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = value == "1";
      } else {
        std::fprintf(stderr, "unknown argument %s\n", key.c_str());
        return 2;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for %s: %s\n", key.c_str(),
                   value.c_str());
      return 2;
    }
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "refusing to time an unoptimised build\n");
  return 2;
#endif
  if (o.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  ha::trace::CounterRegistry::Global().ResetForTest();
  ha::trace::SpanTracer::Global().SetEnabled(false);

  Collected c;
  Failure f;
  unsigned threads = 1;
  if (o.workload == "e1_resize") {
    RunE1(o, &c, &f);
  } else if (o.workload == "fleet_diurnal") {
    threads = kFleetThreads;
    RunFleet(o, &c, &f);
  } else {
    std::fprintf(stderr,
                 "unknown workload '%s' (want e1_resize or fleet_diurnal)\n",
                 o.workload.c_str());
    return 2;
  }

  const uint64_t dropped = ha::trace::SpanTracer::Global().dropped_spans();
  const Reported reported = Report(c);
  std::vector<Metric> metrics =
      o.trace ? PerLayer(c, dropped) : EndToEnd(c, reported, &f);
  if (o.trace) {
    f.Check(dropped == 0, "trace: " + U(dropped) + " spans dropped");
  }
  const std::optional<Tail>& tail = reported.tail;

  // Context lines first; the result is the last line of stdout.
  std::printf(
      "{\"fingerprint\": {\"cores\": %u, \"cpu\": \"%s\", \"build\": \"%s\", "
      "\"worker_threads\": %u}, \"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"units\": %zu, \"resizes\": %" PRIu64
      ", \"resizes_per_unit\": %zu, \"tail_percentile\": %s, "
      "\"stopped_short\": %" PRIu64 "}\n",
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      PERFBENCH_BUILD_TYPE, threads, o.workload.c_str(), o.seed,
      c.units.size(), c.ops, c.requests.size(),
      tail ? Num(tail->percentile).c_str() : "null", c.stopped_short);
  if (!o.trace) {
    auto value = [&metrics](const std::string& name) {
      for (const Metric& m : metrics) {
        if (m.name == name) {
          return m.value;
        }
      }
      return 0.0;
    };
    c.info.push_back("host ns per 2 MiB frame: reclaim " +
                     Num(value("reclaim_ns_per_huge")) + " (paper 388), " +
                     "return " + Num(value("return_ns_per_huge")) +
                     " (paper 229)");
  }
  std::string unit_s = "unit host seconds:";
  for (const Unit& u : c.units) {
    unit_s += " " + Num(Seconds(u.host_ns));
  }
  c.info.push_back(unit_s);
  for (const std::string& line : c.info) {
    std::printf("# %s\n", line.c_str());
  }
  for (const std::string& why : f.why) {
    std::fprintf(stderr, "INCORRECT: %s\n", why.c_str());
  }
  if (!f.correct) {
    return 1;  // a run that fails its oracle emits no numbers
  }
  std::string json = "{\"correct\": true, \"attempted\": " + U(c.ops) +
                     ", \"failed\": " + U(c.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + Num(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

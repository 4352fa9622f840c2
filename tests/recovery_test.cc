// hv::Recovery (DESIGN.md §4.9): the request lifecycle every backend
// shares, and the fault recovery of the virtio-balloon and virtio-mem
// backends, pinned to exact values: for each site a backend polls, a
// shrink followed by a grow under a transient plan; one permanent plan;
// one request deadline; and background work (free-page reports, an
// auto-reclaim pass) failing during a shrink. Every case asserts the
// request outcome's fault/retry/rollback/timeout accounting, the
// request's virtual duration and the limit it reached, so any change to
// the retry budget, the backoff charges, the rollback rules or the
// billing rule shows up as a changed number.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/balloon/virtio_balloon.h"
#include "src/core/hyperalloc.h"
#include "src/core/hyperalloc_generic.h"
#include "src/fault/fault.h"
#include "src/guest/guest_vm.h"
#include "src/trace/span.h"
#include "src/vmem/virtio_mem.h"

namespace hyperalloc {
namespace {

constexpr uint64_t kVmBytes = 256 * kMiB;
constexpr uint64_t kMovableBytes = 192 * kMiB;

// Backs all of guest memory with host frames through the guest's own
// huge allocations (installs, for the HyperAlloc monitors), then frees
// it again.
void BackThroughTheGuest(guest::GuestVm* vm) {
  std::vector<FrameId> held;
  for (Result<FrameId> r = vm->Alloc(kHugeOrder, AllocType::kMovable); r.ok();
       r = vm->Alloc(kHugeOrder, AllocType::kMovable)) {
    vm->Touch(*r, kFramesPerHuge);
    held.push_back(*r);
  }
  for (const FrameId frame : held) {
    vm->Free(frame, kHugeOrder);
  }
}

// What one request came to.
struct Seen {
  uint64_t faults = 0;
  uint64_t retries = 0;
  uint64_t rollbacks = 0;
  bool timed_out = false;
  sim::Time duration_ns = 0;
  uint64_t limit_bytes = 0;
};

std::string Str(const Seen& s) {
  return "{" + std::to_string(s.faults) + ", " + std::to_string(s.retries) +
         ", " + std::to_string(s.rollbacks) + ", " +
         (s.timed_out ? "true" : "false") + ", " +
         std::to_string(s.duration_ns) + "u, " + std::to_string(s.limit_bytes) +
         "u}";
}

// Compares the printed forms, so a failure shows the whole row.
void ExpectEq(const Seen& got, const Seen& want) {
  EXPECT_EQ(Str(got), Str(want));
}

class RecoveryTest : public ::testing::Test {
 protected:
  // Boots a VM for `backend`, backs all of guest memory with host frames
  // (so every reclaim has an EPT unmap to do), then arms `plan_spec`.
  // The injector is armed after construction: virtio-mem's boot-time
  // VFIO pre-population is not a recoverable boundary.
  enum class Backend { kBalloon, kVmem, kHyperAlloc };
  void Init(Backend backend, const std::string& plan_spec, bool vfio = false,
            uint64_t seed = 11, balloon::BalloonConfig balloon = {}) {
    deflator_.reset();
    vm_.reset();
    sim_ = std::make_unique<sim::Simulation>();
    host_ = std::make_unique<hv::HostMemory>(FramesForBytes(kGiB));
    guest::GuestConfig gc;
    gc.memory_bytes = kVmBytes;
    gc.vcpus = 4;
    gc.vfio = vfio;
    if (backend == Backend::kVmem) {
      gc.dma32_bytes = 0;
      gc.movable_bytes = kMovableBytes;
    } else {
      gc.dma32_bytes = 64 * kMiB;
    }
    if (backend == Backend::kHyperAlloc) {
      gc.allocator = guest::AllocatorKind::kLLFree;
    }
    vm_ = std::make_unique<guest::GuestVm>(sim_.get(), host_.get(), gc);
    switch (backend) {
      case Backend::kBalloon:
        deflator_ =
            std::make_unique<balloon::VirtioBalloon>(vm_.get(), balloon);
        break;
      case Backend::kVmem: {
        auto vmem = std::make_unique<vmem::VirtioMem>(vm_.get());
        vmem_ = vmem.get();
        deflator_ = std::move(vmem);
        break;
      }
      case Backend::kHyperAlloc: {
        // Small slices, so a half-VM shrink takes several.
        auto monitor = std::make_unique<core::HyperAllocMonitor>(
            vm_.get(), core::HyperAllocConfig{.hugepages_per_slice = 16});
        monitor_ = monitor.get();
        deflator_ = std::move(monitor);
        break;
      }
    }
    if (backend == Backend::kHyperAlloc) {
      // The monitor installs what the guest allocates.
      BackThroughTheGuest(vm_.get());
    } else {
      vm_->Touch(0, vm_->total_frames());
    }
    if (!plan_spec.empty()) {
      fault::Plan plan;
      plan.seed = seed;
      std::string error;
      ASSERT_TRUE(fault::Plan::Parse(plan_spec, &plan, &error)) << error;
      injector_ = std::make_unique<fault::Injector>(plan);
      vm_->SetFaultInjector(injector_.get());
    }
  }

  // Runs one request to its end. `between`, if set, runs once the first
  // slice has returned with the request still in flight.
  Seen Resize(uint64_t bytes, uint64_t deadline_ns = 0,
              const std::function<void()>& between = {}) {
    bool done = false;
    const sim::Time t0 = sim_->now();
    deflator_->Request({.target_bytes = bytes,
                        .deadline_ns = deadline_ns,
                        .done = [&] { done = true; }});
    if (between) {
      EXPECT_FALSE(done);
      between();
    }
    while (!done) {
      EXPECT_TRUE(sim_->Step());
    }
    const hv::ResizeOutcome& o = deflator_->last_outcome();
    return {.faults = o.faults,
            .retries = o.retries,
            .rollbacks = o.rollbacks,
            .timed_out = o.timed_out,
            .duration_ns = sim_->now() - t0,
            .limit_bytes = deflator_->limit_bytes()};
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<hv::HostMemory> host_;
  std::unique_ptr<guest::GuestVm> vm_;
  std::unique_ptr<hv::Deflator> deflator_;
  vmem::VirtioMem* vmem_ = nullptr;
  core::HyperAllocMonitor* monitor_ = nullptr;
  std::unique_ptr<fault::Injector> injector_;
};

// A shrink to half the VM and a grow back to full size, under one plan.
struct Case {
  const char* plan;
  bool vfio;
  Seen shrink;
  Seen grow;
  uint64_t leaked_backing_blocks;  // virtio-mem only
};

TEST_F(RecoveryTest, BalloonShrinkThenGrowUnderTransientFaults) {
  const Case cases[] = {
      {"balloon_vq:0.3",
       false,
       {44, 44, 0, false, 105190560u, 134217728u},
       {0, 0, 0, false, 45875200u, 268435456u},
       0},
      {"ept_unmap:0.3",
       false,
       {13711, 13464, 0, false, 485640920u, 134217728u},
       {0, 0, 0, false, 45875200u, 268435456u},
       0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.plan);
    Init(Backend::kBalloon, c.plan);
    ExpectEq(Resize(kVmBytes / 2), c.shrink);
    ExpectEq(Resize(kVmBytes), c.grow);
  }
}

TEST_F(RecoveryTest, BalloonPermanentHypercallFaultRollsBackItsBatch) {
  Init(Backend::kBalloon, "balloon_vq@5!");
  ExpectEq(Resize(kVmBytes / 2), {1, 0, 1, false, 4285200u, 263192576u});
  ExpectEq(Resize(kVmBytes), {0, 0, 0, false, 1792000u, 268435456u});
}

TEST_F(RecoveryTest, BalloonDeadlineEndsTheRequestPartially) {
  Init(Backend::kBalloon, "");
  ExpectEq(Resize(kVmBytes / 2, /*deadline_ns=*/1'000'000),
           {0, 0, 0, true, 1627040u, 266338304u});
}

// Free-page reports interleave with the inflate's slices. A report whose
// hypercall fails frees its blocks back unreported; a report is
// background work, so its faults and rollbacks count toward no request.
TEST_F(RecoveryTest, BalloonReportFaultsStayOutOfTheRequest) {
  balloon::BalloonConfig config;
  config.reporting_delay = 100 * sim::kUs;
  Init(Backend::kBalloon, "balloon_vq:0.2!", /*vfio=*/false, /*seed=*/11,
       config);
  deflator_->StartAuto();
  // Four faults, three of them in reports, and one rollback: only the
  // inflate's own fault and the rollback of its batch are the request's.
  ExpectEq(Resize(kVmBytes / 2), {1, 0, 1, false, 5519440u, 262144000u});
  EXPECT_EQ(injector_->injected_total(), 4u);
}

// The HyperAlloc counterpart: an auto-reclaim pass between two slices of
// a shrink unmaps under the same faults, but its faults, retries and
// rollbacks are the monitor's, not the request's.
TEST_F(RecoveryTest, HyperAllocAutoReclaimFaultsStayOutOfTheRequest) {
  Init(Backend::kHyperAlloc, "ept_unmap:0.3");
  uint64_t pass_faults = 0;
  const Seen shrink = Resize(kVmBytes / 2, 0, [&] {
    const uint64_t before = monitor_->faults_seen();
    monitor_->AutoReclaimPass();
    pass_faults = monitor_->faults_seen() - before;
  });
  ExpectEq(shrink, {7, 7, 0, false, 2549904u, 134217728u});
  EXPECT_EQ(pass_faults, 52u);
  EXPECT_EQ(monitor_->faults_seen(), shrink.faults + pass_faults);
}

TEST_F(RecoveryTest, VmemShrinkThenGrowUnderTransientFaults) {
  const Case cases[] = {
      {"vmem_unplug:0.3",
       false,
       {19, 18, 1, false, 3152000u, 174063616u},
       {0, 0, 0, false, 855000u, 268435456u},
       0},
      {"vmem_plug:0.3",
       false,
       {0, 0, 0, false, 3788800u, 134217728u},
       {29, 29, 0, false, 2096000u, 268435456u},
       0},
      {"ept_unmap:0.3",
       false,
       {29, 29, 0, false, 4628800u, 134217728u},
       {0, 0, 0, false, 1216000u, 268435456u},
       0},
      {"vmem_unplug:0.3",
       true,
       {19, 18, 1, false, 4547000u, 174063616u},
       {0, 0, 0, false, 18108000u, 268435456u},
       0},
      {"vmem_plug:0.3",
       true,
       {0, 0, 0, false, 5772800u, 134217728u},
       {29, 29, 0, false, 26633600u, 268435456u},
       0},
      {"ept_unmap:0.3",
       true,
       {29, 29, 0, false, 6612800u, 134217728u},
       {0, 0, 0, false, 25753600u, 268435456u},
       0},
      {"iommu_unpin:0.3",
       true,
       {21, 21, 0, false, 6252800u, 134217728u},
       {0, 0, 0, false, 25753600u, 268435456u},
       0},
      {"ept_map:0.3",
       true,
       {0, 0, 0, false, 5772800u, 134217728u},
       {27, 27, 0, false, 26433600u, 268435456u},
       0},
      {"iommu_pin:0.3",
       true,
       {0, 0, 0, false, 5772800u, 134217728u},
       {13, 12, 0, false, 8768400u, 176160768u},
       0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.plan) + (c.vfio ? " vfio" : ""));
    Init(Backend::kVmem, c.plan, c.vfio);
    ExpectEq(Resize(kVmBytes / 2), c.shrink);
    ExpectEq(Resize(kVmBytes), c.grow);
    EXPECT_EQ(vmem_->leaked_backing_blocks(), c.leaked_backing_blocks);
  }
}

TEST_F(RecoveryTest, VmemPermanentFaults) {
  const Case cases[] = {
      // The fifth unmap fails for good: the block is unplugged anyway and
      // its host backing leaks until a replug.
      {"ept_unmap@4!",
       false,
       {1, 0, 0, false, 3779600u, 134217728u},
       {0, 0, 0, false, 1216000u, 268435456u},
       1},
      // The fifth unpin fails for good: that block rolls back to plugged
      // and the shrink stops there.
      {"iommu_unpin@4!",
       true,
       {1, 0, 1, false, 410800u, 260046848u},
       {0, 0, 0, false, 1609600u, 268435456u},
       0},
      // The fifth pin fails for good: that plug aborts and the grow stops
      // there.
      {"iommu_pin@4!",
       true,
       {0, 0, 0, false, 5772800u, 134217728u},
       {1, 0, 0, false, 1970000u, 142606336u},
       0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.plan) + (c.vfio ? " vfio" : ""));
    Init(Backend::kVmem, c.plan, c.vfio);
    ExpectEq(Resize(kVmBytes / 2), c.shrink);
    ExpectEq(Resize(kVmBytes), c.grow);
    EXPECT_EQ(vmem_->leaked_backing_blocks(), c.leaked_backing_blocks);
  }
}

TEST_F(RecoveryTest, VmemDeadlineEndsTheRequestPartially) {
  Init(Backend::kVmem, "");
  ExpectEq(Resize(kVmBytes / 2, /*deadline_ns=*/1'000'000),
           {0, 0, 0, true, 1894400u, 201326592u});
  Init(Backend::kVmem, "", /*vfio=*/true);
  ExpectEq(Resize(kVmBytes / 2, /*deadline_ns=*/1'000'000),
           {0, 0, 0, true, 1443200u, 234881024u});
}

// --- The request lifecycle, the same for every backend ------------------
//
// hv::Recovery drives every backend's request: the first slice runs
// inside Request, each later slice is one zero-delay event, and `done`
// fires once the request has gone as far as it can. Each backend below
// shrinks a touched 2 GiB VM to 512 MiB in many slices and grows it
// back from inside the shrink's `done`, then repeats both with a 1 ns
// deadline each. Every request pins its slice count, its virtual duration,
// the charges its spans carry (tracing builds only) and where it ended.

enum class Technique { kHyperAlloc, kGeneric, kBalloon, kVmem };

constexpr uint64_t kLifecycleVmBytes = 2 * kGiB;
constexpr uint64_t kLifecycleSmallBytes = 512 * kMiB;

// One lifecycle request as seen from outside.
struct Lifecycle {
  uint64_t slices = 0;
  sim::Time duration_ns = 0;
  uint64_t span_charge_ns = 0;  // 0 without tracing
  uint64_t limit_bytes = 0;
  bool complete = false;
  bool timed_out = false;
};

std::string Str(const Lifecycle& l) {
  return "{" + std::to_string(l.slices) + ", " +
         std::to_string(l.duration_ns) + "u, " +
         std::to_string(l.span_charge_ns) + "u, " +
         std::to_string(l.limit_bytes) + "u, " +
         (l.complete ? "true" : "false") + ", " +
         (l.timed_out ? "true" : "false") + "}";
}

class RequestLifecycleTest : public ::testing::TestWithParam<Technique> {
 protected:
  void SetUp() override {
#if HYPERALLOC_TRACE
    trace::SpanTracer::Global().SetCapacity(1 << 16);
    trace::SpanTracer::Global().ResetForTest();
    trace::SpanTracer::Global().SetEnabled(true);
#endif
    guest::GuestConfig config;
    config.memory_bytes = kLifecycleVmBytes;
    config.vcpus = 2;
    config.dma32_bytes = 0;
    switch (GetParam()) {
      case Technique::kHyperAlloc:
        config.allocator = guest::AllocatorKind::kLLFree;
        break;
      case Technique::kVmem:
        config.movable_bytes = kLifecycleVmBytes - kLifecycleSmallBytes;
        break;
      default:
        break;
    }
    vm_ = std::make_unique<guest::GuestVm>(&sim_, &host_, config);
    switch (GetParam()) {
      case Technique::kHyperAlloc:
        deflator_ = std::make_unique<core::HyperAllocMonitor>(
            vm_.get(), core::HyperAllocConfig{});
        break;
      case Technique::kGeneric:
        deflator_ = std::make_unique<core::GenericHyperAllocMonitor>(vm_.get());
        break;
      case Technique::kBalloon:
        deflator_ = std::make_unique<balloon::VirtioBalloon>(
            vm_.get(), balloon::BalloonConfig{});
        break;
      case Technique::kVmem:
        deflator_ = std::make_unique<vmem::VirtioMem>(vm_.get());
        break;
    }
    BackThroughTheGuest(vm_.get());
  }

  void TearDown() override {
#if HYPERALLOC_TRACE
    trace::SpanTracer::Global().SetEnabled(false);
    trace::SpanTracer::Global().Drain();
#endif
  }

  // Issues a request to `target` (with `deadline_ns`; 0 = none) and, if
  // `then` is set, another to `then` (no deadline) from inside the first
  // one's `done`.
  // Runs the simulation dry and returns both requests as seen.
  std::vector<Lifecycle> Drive(uint64_t target, uint64_t deadline_ns,
                               uint64_t then = 0) {
    std::vector<Lifecycle> seen;
    uint64_t event = 0;  // the event running now; 0 = outside the loop
    Issue(target, deadline_ns, then, &event, &seen);
    while (sim_.pending_events() > 0) {
      ++event;
      sim_.Step();
    }
    EXPECT_FALSE(deflator_->busy());
#if HYPERALLOC_TRACE
    // Each request is its own trace; request spans sort by their start,
    // so `traces` lists the requests in issue order.
    std::vector<uint64_t> traces;
    std::map<uint64_t, uint64_t> charge;
    for (const trace::SpanRecord& span : trace::SpanTracer::Global().Drain()) {
      if (span.layer == trace::Layer::kRequest) {
        traces.push_back(span.trace_id);
      }
      charge[span.trace_id] += span.charge_ns;
    }
    EXPECT_EQ(trace::SpanTracer::Global().dropped_spans(), 0u);
    EXPECT_EQ(traces.size(), seen.size());
    for (size_t i = 0; i < traces.size() && i < seen.size(); ++i) {
      seen[i].span_charge_ns = charge[traces[i]];
    }
#endif
    return seen;
  }

  void Issue(uint64_t target, uint64_t deadline_ns, uint64_t then,
             const uint64_t* event, std::vector<Lifecycle>* seen) {
    const size_t index = seen->size();
    seen->emplace_back();
    const uint64_t first_event = *event;
    const sim::Time t0 = sim_.now();
    auto outcomes = std::make_shared<int>(0);
    deflator_->Request(
        {.target_bytes = target,
         .deadline_ns = deadline_ns,
         .done =
             [=, this] {
               // on_outcome fired exactly once, before done, and the
               // backend is idle again.
               EXPECT_EQ(*outcomes, 1);
               EXPECT_FALSE(deflator_->busy());
               const hv::ResizeOutcome& o = deflator_->last_outcome();
               Lifecycle& l = (*seen)[index];
               l.slices = *event - first_event + 1;
               l.duration_ns = sim_.now() - t0;
               l.limit_bytes = deflator_->limit_bytes();
               l.complete = o.complete;
               l.timed_out = o.timed_out;
               if (then != 0) {
                 Issue(then, 0, 0, event, seen);
               }
             },
         .on_outcome =
             [=](const hv::ResizeOutcome& o) {
               ++*outcomes;
               EXPECT_EQ(o.target_bytes, target);
             }});
  }

  sim::Simulation sim_;
  hv::HostMemory host_{FramesForBytes(4 * kGiB)};
  std::unique_ptr<guest::GuestVm> vm_;
  std::unique_ptr<hv::Deflator> deflator_;
};

// Indexed by Technique.
struct LifecycleCase {
  Lifecycle shrink, grow;            // no deadline
  Lifecycle late_shrink, late_grow;  // 1 ns deadline
};

void ExpectEq(const Lifecycle& got, Lifecycle want) {
#if !HYPERALLOC_TRACE
  want.span_charge_ns = 0;
#endif
  EXPECT_EQ(Str(got), Str(want));
}

const LifecycleCase kLifecycleCases[] = {
    // HyperAlloc
    {{2, 4299584u, 4299584u, 536870912u, true, false},
     {2, 175872u, 175872u, 2147483648u, true, false},
     {2, 1533856u, 1533856u, 1073741824u, false, true},
     {2, 117248u, 117248u, 1610612736u, false, true}},
    // Generic
    {{2, 4735200u, 4735200u, 536870912u, true, false},
     {2, 636672u, 636672u, 2147483648u, true, false},
     {2, 488400u, 488400u, 1073741824u, false, true},
     {2, 424448u, 424448u, 1610612736u, false, true}},
    // Balloon
    {{1536, 1249566720u, 1249566720u, 536870912u, true, false},
     {1536, 550502400u, 550502400u, 2147483648u, true, false},
     {2, 782800u, 782800u, 2146435072u, false, true},
     {2, 358400u, 358400u, 537919488u, false, true}},
    // Vmem
    {{48, 45465600u, 45465600u, 536870912u, true, false},
     {48, 14592000u, 14592000u, 2147483648u, true, false},
     {2, 800000u, 800000u, 2113929216u, false, true},
     {2, 304000u, 304000u, 570425344u, false, true}},
};

TEST_P(RequestLifecycleTest, SlicesOutcomeAndDone) {
  const LifecycleCase& c = kLifecycleCases[static_cast<int>(GetParam())];
  // A shrink, and a grow issued from inside its `done`.
  const std::vector<Lifecycle> full =
      Drive(kLifecycleSmallBytes, 0, kLifecycleVmBytes);
  ASSERT_EQ(full.size(), 2u);
  ExpectEq(full[0], c.shrink);
  ExpectEq(full[1], c.grow);
  // A 1 ns deadline each way: the first slice runs, the second finds
  // the deadline passed and the request finishes partially.
  const std::vector<Lifecycle> late_shrink = Drive(kLifecycleSmallBytes, 1);
  ASSERT_EQ(late_shrink.size(), 1u);
  ExpectEq(late_shrink[0], c.late_shrink);
  ASSERT_TRUE(Drive(kLifecycleSmallBytes, 0)[0].complete);
  const std::vector<Lifecycle> late_grow = Drive(kLifecycleVmBytes, 1);
  ASSERT_EQ(late_grow.size(), 1u);
  ExpectEq(late_grow[0], c.late_grow);
}

std::string TechniqueName(const ::testing::TestParamInfo<Technique>& param) {
  static constexpr const char* kNames[] = {"HyperAlloc", "Generic", "Balloon",
                                           "Vmem"};
  return kNames[static_cast<int>(param.param)];
}

INSTANTIATE_TEST_SUITE_P(Backends, RequestLifecycleTest,
                         ::testing::Values(Technique::kHyperAlloc,
                                           Technique::kGeneric,
                                           Technique::kBalloon,
                                           Technique::kVmem),
                         TechniqueName);

}  // namespace
}  // namespace hyperalloc

// Fault recovery of the virtio-balloon and virtio-mem backends
// (DESIGN.md §4.9), pinned to exact values: for each site a backend
// polls, a shrink followed by a grow under a transient plan; one
// permanent plan; one request deadline; and free-page reports failing
// during an inflate. Every case asserts the
// request outcome's fault/retry/rollback/timeout accounting, the
// request's virtual duration and the limit it reached, so any change to
// the retry budget, the backoff charges or the rollback rules shows up
// as a changed number.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/balloon/virtio_balloon.h"
#include "src/fault/fault.h"
#include "src/guest/guest_vm.h"
#include "src/vmem/virtio_mem.h"

namespace hyperalloc {
namespace {

constexpr uint64_t kVmBytes = 256 * kMiB;
constexpr uint64_t kMovableBytes = 192 * kMiB;

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
  enum class Backend { kBalloon, kVmem };
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
    if (backend == Backend::kBalloon) {
      gc.dma32_bytes = 64 * kMiB;
    } else {
      gc.dma32_bytes = 0;
      gc.movable_bytes = kMovableBytes;
    }
    vm_ = std::make_unique<guest::GuestVm>(sim_.get(), host_.get(), gc);
    if (backend == Backend::kBalloon) {
      deflator_ = std::make_unique<balloon::VirtioBalloon>(vm_.get(), balloon);
    } else {
      auto vmem =
          std::make_unique<vmem::VirtioMem>(vm_.get(), vmem::VmemConfig{});
      vmem_ = vmem.get();
      deflator_ = std::move(vmem);
    }
    vm_->Touch(0, vm_->total_frames());
    if (!plan_spec.empty()) {
      fault::Plan plan;
      plan.seed = seed;
      std::string error;
      ASSERT_TRUE(fault::Plan::Parse(plan_spec, &plan, &error)) << error;
      injector_ = std::make_unique<fault::Injector>(plan);
      vm_->SetFaultInjector(injector_.get());
    }
  }

  Seen Resize(uint64_t bytes, uint64_t deadline_ns = 0) {
    bool done = false;
    const sim::Time t0 = sim_->now();
    deflator_->Request({.target_bytes = bytes,
                        .deadline_ns = deadline_ns,
                        .done = [&] { done = true; }});
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
// hypercall fails frees its blocks back unreported: its faults and
// retries count toward the request in flight, its rollbacks do not.
TEST_F(RecoveryTest, BalloonReportRollbacksStayOutOfTheRequest) {
  balloon::BalloonConfig config;
  config.reporting_delay = 100 * sim::kUs;
  Init(Backend::kBalloon, "balloon_vq:0.2!", /*vfio=*/false, /*seed=*/11,
       config);
  deflator_->StartAuto();
  // Four faults, three of them in reports, and one rollback: the
  // inflate's own batch.
  ExpectEq(Resize(kVmBytes / 2), {4, 0, 1, false, 5519440u, 262144000u});
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

}  // namespace
}  // namespace hyperalloc

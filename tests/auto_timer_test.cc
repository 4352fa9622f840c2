// The automatic-reclamation timer (hv::AutoTimer) behind every backend's
// StartAuto/StopAuto. Stopping cannot cancel the tick already queued, so
// a restart within one period must end the old tick chain instead of
// running a second one beside the new chain.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/balloon/virtio_balloon.h"
#include "src/core/hyperalloc.h"
#include "src/core/hyperalloc_generic.h"
#include "src/guest/guest_vm.h"
#include "src/hv/auto_timer.h"
#include "src/vmem/virtio_mem.h"

namespace hyperalloc {
namespace {

TEST(AutoTimer, StopThenStartWithinOnePeriodKeepsOneChain) {
  sim::Simulation sim;
  std::vector<sim::Time> ticks;
  hv::AutoTimer timer(&sim, 5 * sim::kSec, [&] {
    ticks.push_back(sim.now());
    return 5 * sim::kSec;
  });
  timer.Start();
  sim.RunUntil(1 * sim::kSec);
  timer.Stop();
  sim.RunUntil(2 * sim::kSec);
  timer.Start();
  sim.RunUntil(20 * sim::kSec);
  EXPECT_EQ(ticks, (std::vector<sim::Time>{7 * sim::kSec, 12 * sim::kSec,
                                           17 * sim::kSec}));
  // The stale tick at 5 s fired and ended its chain.
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(AutoTimer, StopInsideATickEndsTheChainAfterOneMoreEvent) {
  sim::Simulation sim;
  int ticks = 0;
  std::unique_ptr<hv::AutoTimer> timer;
  timer = std::make_unique<hv::AutoTimer>(&sim, sim::kSec, [&] {
    ++ticks;
    timer->Stop();
    return sim::kSec;
  });
  timer->Start();
  sim.RunUntil(1 * sim::kSec);
  EXPECT_EQ(ticks, 1);
  // Like a plain re-arming chain, the stopping tick still re-arms once.
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(ticks, 1);
}

enum class Backend { kHyperAlloc, kGeneric, kBalloon, kVmem };

struct Rig {
  sim::Simulation sim;
  hv::HostMemory host{FramesForBytes(2 * kGiB)};
  std::unique_ptr<guest::GuestVm> vm;
  std::unique_ptr<hv::Deflator> deflator;
  sim::Time period = 0;

  explicit Rig(Backend backend) {
    guest::GuestConfig config;
    config.memory_bytes = kGiB;
    config.vcpus = 2;
    config.dma32_bytes = 0;
    if (backend == Backend::kHyperAlloc) {
      config.allocator = guest::AllocatorKind::kLLFree;
    }
    if (backend == Backend::kVmem) {
      config.movable_bytes = 768 * kMiB;
    }
    vm = std::make_unique<guest::GuestVm>(&sim, &host, config);
    switch (backend) {
      case Backend::kHyperAlloc:
        deflator = std::make_unique<core::HyperAllocMonitor>(
            vm.get(), core::HyperAllocConfig{});
        period = 5 * sim::kSec;  // the paper's scan period
        break;
      case Backend::kGeneric:
        deflator = std::make_unique<core::GenericHyperAllocMonitor>(vm.get());
        period = 5 * sim::kSec;
        break;
      case Backend::kBalloon:
        deflator = std::make_unique<balloon::VirtioBalloon>(
            vm.get(), balloon::BalloonConfig{});
        period = balloon::BalloonConfig{}.reporting_delay;
        break;
      case Backend::kVmem:
        deflator = std::make_unique<vmem::VirtioMem>(vm.get());
        period = vmem::kAutoPeriod;
        break;
    }
  }
};

struct Seen {
  uint64_t cpu_ns = 0;
  size_t pending = 0;
};

// Auto on at 0, off at period/5, on again at 2*period/5 (or only the last
// start when `restart` is false), then run to 4 periods.
Seen DriveAuto(Backend backend, bool restart) {
  Rig rig(backend);
  const sim::Time p = rig.period;
  if (restart) {
    rig.deflator->StartAuto();
    rig.sim.RunUntil(p / 5);
    rig.deflator->StopAuto();
  }
  rig.sim.RunUntil(2 * p / 5);
  rig.deflator->StartAuto();
  rig.sim.RunUntil(4 * p);
  return {.cpu_ns = rig.deflator->cpu().total(),
          .pending = rig.sim.pending_events()};
}

class AutoRestartTest : public ::testing::TestWithParam<Backend> {};

TEST_P(AutoRestartTest, RestartWithinOnePeriodRunsOneChain) {
  const Seen fresh = DriveAuto(GetParam(), /*restart=*/false);
  const Seen restarted = DriveAuto(GetParam(), /*restart=*/true);
  // Two chains would leave two ticks queued and (for the scanning
  // monitors) charge twice the scans.
  EXPECT_EQ(restarted.pending, fresh.pending);
  EXPECT_EQ(restarted.cpu_ns, fresh.cpu_ns);
}

std::string BackendName(const ::testing::TestParamInfo<Backend>& param) {
  static constexpr const char* kNames[] = {"HyperAlloc", "Generic", "Balloon",
                                           "Vmem"};
  return kNames[static_cast<int>(param.param)];
}

INSTANTIATE_TEST_SUITE_P(Backends, AutoRestartTest,
                         ::testing::Values(Backend::kHyperAlloc,
                                           Backend::kGeneric,
                                           Backend::kBalloon, Backend::kVmem),
                         BackendName);

}  // namespace
}  // namespace hyperalloc

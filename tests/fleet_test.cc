// Fleet engine tests (DESIGN.md §4.12): cross-thread determinism at
// 512 VMs, policy behavior on canned pressure traces, admission-control
// rejection accounting, arrival-process determinism, fault-plan
// composition through the fleet VM factory path, and admission under
// permanent unmap faults.
//
// The VM factory here is built from src/ parts only (GuestVm +
// HyperAllocMonitor) — deliberately NOT bench/candidates.h, so the test
// covers the public orchestration API without a src-test -> bench
// dependency.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/hyperalloc.h"
#include "src/fault/fault.h"
#include "src/fleet/agents.h"
#include "src/fleet/arrival.h"
#include "src/fleet/fleet.h"
#include "src/fleet/policy.h"
#include "src/guest/guest_vm.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::fleet {
namespace {

// src-only VM factory: LLFree guest + HyperAlloc monitor, optional
// per-VM decorrelated fault plan (same seed derivation as the bench
// factory: plan.seed + index).
VmFactory TestVmFactory(uint64_t vm_bytes, fault::Plan plan = {},
                        core::HyperAllocConfig monitor = {},
                        unsigned vcpus = 1) {
  return [vm_bytes, plan, monitor, vcpus](sim::Simulation* sim,
                                          hv::HostMemory* host,
                                          uint64_t index,
                                          const std::string& name) {
    guest::GuestConfig gc;
    gc.name = name;
    gc.memory_bytes = vm_bytes;
    gc.vcpus = vcpus;
    gc.allocator = guest::AllocatorKind::kLLFree;
    gc.dma32_bytes = 0;

    FleetVmParts parts;
    parts.vm = std::make_unique<guest::GuestVm>(sim, host, gc);
    parts.deflator =
        std::make_unique<core::HyperAllocMonitor>(parts.vm.get(), monitor);
    if (plan.enabled()) {
      fault::Plan mine = plan;
      mine.seed += index;
      parts.fault = std::make_unique<fault::Injector>(mine);
      parts.vm->SetFaultInjector(parts.fault.get());
    }
    return parts;
  };
}

// ---------------------------------------------------------------------
// Determinism: byte-identical per-VM outcomes across worker threads.
// ---------------------------------------------------------------------

using PolicyMaker = std::unique_ptr<ResizePolicy> (*)(const PolicyConfig&);

// 64 MiB VMs at ~1.6x overcommit for 2 minutes; `spike` lands at 1 min.
FleetResult RunFleet(unsigned threads, uint64_t vms, bool huge,
                     PolicyMaker make_policy, ArrivalKind arrival,
                     PressureSpike spike) {
  const uint64_t vm_bytes = 64 * kMiB;
  PolicyConfig pc;

  FleetConfig config;
  config.vms = vms;
  config.threads = threads;
  config.vm_bytes = vm_bytes;
  // ~1.6x overcommit, same shape as the bench scenario.
  config.host_bytes = vms * 40 * kMiB;
  config.horizon = 2 * sim::kMin;
  config.epoch = 5 * sim::kSec;
  config.record_series = false;
  config.initial_limit_bytes = pc.min_limit_bytes + pc.headroom_bytes;
  config.spike = spike;

  ArrivalConfig ac;
  ac.kind = arrival;
  ac.horizon = config.horizon;
  ac.peak_bytes = 48 * kMiB;
  auto arrivals = std::make_shared<std::unique_ptr<ArrivalProcess>>(
      MakeArrivalProcess(ac));

  FleetEngine engine(
      config, TestVmFactory(vm_bytes),
      [arrivals, huge](uint64_t index) {
        DemandAgentConfig dc;
        dc.trace = (*arrivals)->Generate(index);
        if (huge) {
          // §4.14 fast-path mode: all demand THP-backed, so population
          // and reclaim both move at 2 MiB granularity.
          dc.thp_fraction = 1.0;
        }
        return std::make_unique<DemandAgent>(dc);
      },
      make_policy(pc));
  return engine.Run();
}

FleetResult RunDeterminismFleet(unsigned threads, uint64_t vms,
                                bool huge = false) {
  return RunFleet(threads, vms, huge, MakeProportionalShare,
                  ArrivalKind::kBursty,
                  {sim::kMin, std::min<uint64_t>(vms / 8, 32), 16 * kMiB});
}

TEST(FleetDeterminism, ByteIdenticalAcross1And4And16Threads) {
  const uint64_t kVms = 512;
  const FleetResult one = RunDeterminismFleet(1, kVms);
  ASSERT_EQ(one.vm_digests.size(), kVms);
  EXPECT_GT(one.slo.resizes, 0u);
  // Pinned: a change that samples or decides differently on every thread
  // count alike still moves this digest.
  EXPECT_EQ(one.fleet_digest, 0x61544825584231e8ull);

  for (const unsigned threads : {4u, 16u}) {
    const FleetResult many = RunDeterminismFleet(threads, kVms);
    EXPECT_EQ(one.fleet_digest, many.fleet_digest)
        << "fleet digest diverged at " << threads << " threads";
    ASSERT_EQ(one.vm_digests.size(), many.vm_digests.size());
    for (uint64_t i = 0; i < kVms; ++i) {
      ASSERT_EQ(one.vm_digests[i], many.vm_digests[i])
          << "VM " << i << " diverged at " << threads << " threads";
    }
    EXPECT_EQ(one.slo.resizes, many.slo.resizes);
    EXPECT_EQ(one.final_limit_bytes, many.final_limit_bytes);
  }
}

// Every policy under every random arrival shape, pinned at one thread.
// The policies' gains, prices, reserve and hysteresis and the arrival
// shapes are constants with no knob; these digests pin what they do.
// Half the fleet spikes by 32 MiB, so the pool runs short and the three
// policies part ways under every arrival shape. With telemetry compiled
// in, its stream is pinned too.
TEST(FleetDeterminism, PolicyByArrivalDigestsArePinned) {
  struct Case {
    const char* policy;
    PolicyMaker make_policy;
    ArrivalKind arrival;
    uint64_t fleet_digest;
    uint64_t telemetry_digest;
  };
  const Case kCases[] = {
      {"proportional-share", MakeProportionalShare, ArrivalKind::kBursty,
       0x8d0e4f1d743b89deull, 0xeaa8b2709801f4caull},
      {"proportional-share", MakeProportionalShare, ArrivalKind::kDiurnal,
       0x44fbc10a290b4c2full, 0x8bf432032cbd419aull},
      {"proportional-share", MakeProportionalShare,
       ArrivalKind::kHeavyTailed, 0xcb87f1dab93e48acull, 0x56014c5340dad334ull},
      {"pressure-pid", MakePressurePid, ArrivalKind::kBursty,
       0xb9ca629dd7c00b4ull, 0xf0c45286005c6a4ull},
      {"pressure-pid", MakePressurePid, ArrivalKind::kDiurnal,
       0xd7a4518e8ff3caeaull, 0x8d2869400a1f652bull},
      {"pressure-pid", MakePressurePid, ArrivalKind::kHeavyTailed,
       0x357f7d9b258cdd38ull, 0x16defaa1f3cc188dull},
      {"market", MakeMarketPolicy, ArrivalKind::kBursty,
       0x64bd5059c857fb89ull, 0xb140ec935bb4f86dull},
      {"market", MakeMarketPolicy, ArrivalKind::kDiurnal,
       0x945e6d793ab140c6ull, 0xed521d3dd749b0ull},
      {"market", MakeMarketPolicy, ArrivalKind::kHeavyTailed,
       0x8e6999f5f99d1beaull, 0xf7cb3d46b81c69dcull},
  };
  for (const Case& c : kCases) {
    const FleetResult result =
        RunFleet(1, 64, /*huge=*/false, c.make_policy, c.arrival,
                 {sim::kMin, 32, 32 * kMiB});
    const std::string name = std::string(c.policy) + " / arrival " +
                             std::to_string(static_cast<int>(c.arrival));
    EXPECT_GT(result.slo.resizes, 0u) << name;
    EXPECT_EQ(result.fleet_digest, c.fleet_digest)
        << name << std::hex << ": 0x" << result.fleet_digest;
#if HYPERALLOC_TRACE
    EXPECT_EQ(result.telemetry.telemetry_digest, c.telemetry_digest)
        << name << std::hex << ": 0x" << result.telemetry.telemetry_digest;
#endif
  }
}

// Huge-frame fast-path mode (§4.14): the fleet-wide huge-reclaim split
// is aggregated at the engine barrier from per-VM deflator counters, so
// it must be byte-identical across worker-thread counts too — and the
// counters must actually move (the share gate would be vacuous on an
// idle fleet).
TEST(FleetDeterminism, HugeModeDigestsByteIdenticalAt512Vms) {
  const uint64_t kVms = 512;
  const FleetResult one = RunDeterminismFleet(1, kVms, /*huge=*/true);
  ASSERT_EQ(one.vm_digests.size(), kVms);
  EXPECT_GT(one.slo.resizes, 0u);
  ASSERT_GT(one.huge_reclaim.total(), 0u)
      << "huge mode reclaimed nothing: the share metric is vacuous";
  EXPECT_GE(one.huge_reclaim.Share(), 0.0);
  EXPECT_LE(one.huge_reclaim.Share(), 1.0);

  for (const unsigned threads : {4u, 16u}) {
    const FleetResult many = RunDeterminismFleet(threads, kVms, true);
    EXPECT_EQ(one.fleet_digest, many.fleet_digest)
        << "huge-mode fleet digest diverged at " << threads
        << " threads";
    for (uint64_t i = 0; i < kVms; ++i) {
      ASSERT_EQ(one.vm_digests[i], many.vm_digests[i])
          << "VM " << i << " diverged at " << threads << " threads";
    }
    EXPECT_EQ(one.huge_reclaim.untouched, many.huge_reclaim.untouched);
    EXPECT_EQ(one.huge_reclaim.via_2m, many.huge_reclaim.via_2m);
    EXPECT_EQ(one.huge_reclaim.via_4k, many.huge_reclaim.via_4k);
  }

  // The THP-backed fleet must not regress the huge-granular share below
  // the perf-gate floor the bench enforces (scripts/perf_gate.py).
  EXPECT_GE(one.huge_reclaim.Share(), 0.8);
}

// ---------------------------------------------------------------------
// Telemetry determinism: the barrier-sampled stream and the flight
// recorder are pure functions of virtual time, so their digests must be
// byte-identical across worker-thread counts even with a fault plan
// driving VMs into quarantine mid-run (DESIGN.md §4.13).
// ---------------------------------------------------------------------

#if HYPERALLOC_TRACE
FleetResult RunTelemetryFleet(unsigned threads) {
  const uint64_t kVms = 512;
  const uint64_t vm_bytes = 64 * kMiB;
  PolicyConfig pc;

  FleetConfig config;
  config.vms = kVms;
  config.threads = threads;
  config.vm_bytes = vm_bytes;
  config.host_bytes = kVms * 40 * kMiB;  // ~1.6x overcommit
  config.horizon = 2 * sim::kMin;
  config.epoch = 5 * sim::kSec;
  config.record_series = false;
  config.initial_limit_bytes = pc.min_limit_bytes + pc.headroom_bytes;
  config.spike = {sim::kMin, 32, 16 * kMiB};
  // Telemetry on (the default). Its alert and flight markers only reach
  // the global span tracer, which no test in this file enables.

  // Permanent unmap faults push frames toward the per-VM quarantine
  // limit; under 1.6x overcommit the policy keeps deflating (every
  // deflate is an unmap site), so some VMs quarantine mid-run and the
  // flight recorder freezes a bundle. The limit is tightened from its
  // default 16 so quarantine trips within the short test horizon (the
  // per-VM fault budget here is ~1-2 permanent faults).
  fault::Plan plan;
  std::string error;
  EXPECT_TRUE(fault::Plan::Parse("ept_unmap:0.6!", &plan, &error)) << error;
  plan.seed = 42;
  core::HyperAllocConfig monitor;
  monitor.quarantine_frame_limit = 2;

  ArrivalConfig ac;
  ac.kind = ArrivalKind::kBursty;
  ac.horizon = config.horizon;
  ac.peak_bytes = 48 * kMiB;
  auto arrivals = std::make_shared<std::unique_ptr<ArrivalProcess>>(
      MakeArrivalProcess(ac));

  FleetEngine engine(
      config, TestVmFactory(vm_bytes, plan, monitor),
      [arrivals](uint64_t index) {
        DemandAgentConfig dc;
        dc.trace = (*arrivals)->Generate(index);
        return std::make_unique<DemandAgent>(dc);
      },
      MakeProportionalShare(pc));
  return engine.Run();
}
#endif  // HYPERALLOC_TRACE

TEST(FleetTelemetry, DigestsByteIdenticalAcross1And4And16Threads) {
#if !HYPERALLOC_TRACE
  GTEST_SKIP() << "telemetry compiled out (HYPERALLOC_TRACE=0)";
#else
  const FleetResult one = RunTelemetryFleet(1);
  ASSERT_TRUE(one.telemetry.enabled);
  EXPECT_GT(one.telemetry.epochs, 0u);
  EXPECT_NE(one.telemetry.telemetry_digest, 0u);
  // The fault plan must actually drive the flight recorder, otherwise
  // flight-digest equality below is vacuous.
  ASSERT_GT(one.telemetry.flight_dumps, 0u);
  EXPECT_NE(one.telemetry.flight_digest, 0u);
  // Pinned: the gauges must show each VM as the next epoch runs it, so
  // a barrier that skips re-reading the VMs it just issued to moves
  // these on every thread count alike.
  EXPECT_EQ(one.telemetry.telemetry_digest, 0xcefe768732f48663ull);
  EXPECT_EQ(one.telemetry.flight_digest, 0x4122588c2c4cced3ull);

  for (const unsigned threads : {4u, 16u}) {
    const FleetResult many = RunTelemetryFleet(threads);
    EXPECT_EQ(one.fleet_digest, many.fleet_digest)
        << "fleet digest diverged at " << threads << " threads";
    EXPECT_EQ(one.telemetry.telemetry_digest, many.telemetry.telemetry_digest)
        << "telemetry stream diverged at " << threads << " threads";
    EXPECT_EQ(one.telemetry.flight_digest, many.telemetry.flight_digest)
        << "flight bundles diverged at " << threads << " threads";
    EXPECT_EQ(one.telemetry.epochs, many.telemetry.epochs);
    EXPECT_EQ(one.telemetry.alerts, many.telemetry.alerts);
    EXPECT_EQ(one.telemetry.flight_dumps, many.telemetry.flight_dumps);
    // Byte-level check on the serialized bundles, not just the digest.
    ASSERT_EQ(one.telemetry.dumps.size(), many.telemetry.dumps.size());
    for (size_t i = 0; i < one.telemetry.dumps.size(); ++i) {
      EXPECT_EQ(one.telemetry.dumps[i].json, many.telemetry.dumps[i].json);
      EXPECT_EQ(one.telemetry.dumps[i].perfetto,
                many.telemetry.dumps[i].perfetto);
    }
  }
#endif  // HYPERALLOC_TRACE
}

// A fleet needs at least one worker thread; the check fires in the
// constructor, before any thread starts.
TEST(FleetConfigDeathTest, ZeroThreadsIsRejected) {
  FleetConfig config;
  config.vms = 4;
  config.threads = 0;
  EXPECT_DEATH(FleetEngine(config, TestVmFactory(64 * kMiB),
                           [](uint64_t) -> std::unique_ptr<VmAgent> {
                             return nullptr;
                           },
                           nullptr),
               "threads >= 1");
}

// ---------------------------------------------------------------------
// Policies on canned signals.
// ---------------------------------------------------------------------

std::vector<ResizeAction> Decide(ResizePolicy* policy,
                                 const PoolSignal& pool,
                                 const std::vector<VmSignal>& vms) {
  // Same pre-set as the engine: "keep the current limit".
  std::vector<ResizeAction> actions(vms.size());
  for (size_t i = 0; i < vms.size(); ++i) {
    actions[i] = {vms[i].limit_bytes, 0};
  }
  policy->Decide(pool, vms, &actions);
  return actions;
}

VmSignal Signal(uint64_t memory, uint64_t limit, uint64_t want) {
  VmSignal vm;
  vm.memory_bytes = memory;
  vm.limit_bytes = limit;
  vm.wss_bytes = want;
  vm.demand_bytes = want;
  return vm;
}

TEST(ProportionalSharePolicy, UncontendedGetsWantPlusHeadroom) {
  PolicyConfig pc;
  auto policy = MakeProportionalShare(pc);
  PoolSignal pool;
  pool.capacity_bytes = kGiB;
  const std::vector<VmSignal> vms(4, Signal(64 * kMiB, 20 * kMiB,
                                            40 * kMiB));
  const auto actions = Decide(policy.get(), pool, vms);
  for (const ResizeAction& action : actions) {
    EXPECT_EQ(action.target_bytes, 40 * kMiB + pc.headroom_bytes);
    EXPECT_EQ(action.deadline, kResizeDeadline);
  }
}

TEST(ProportionalSharePolicy, OvercommitScalesBackProportionally) {
  PolicyConfig pc;
  auto policy = MakeProportionalShare(pc);
  PoolSignal pool;
  pool.capacity_bytes = 128 * kMiB;
  // Everyone wants their full 64 MiB: 4x the usable pool.
  const std::vector<VmSignal> vms(4, Signal(64 * kMiB, 24 * kMiB,
                                            60 * kMiB));
  const auto actions = Decide(policy.get(), pool, vms);
  const uint64_t usable = static_cast<uint64_t>(
      static_cast<double>(pool.capacity_bytes) * (1.0 - kShareReserve));
  uint64_t sum = 0;
  for (const ResizeAction& action : actions) {
    EXPECT_GE(action.target_bytes, pc.min_limit_bytes);
    EXPECT_LT(action.target_bytes, 64 * kMiB);
    EXPECT_EQ(action.target_bytes, actions[0].target_bytes)
        << "identical VMs must get identical shares";
    sum += action.target_bytes;
  }
  EXPECT_LE(sum, usable);
}

TEST(ProportionalSharePolicy, HysteresisAndBusySuppressRequests) {
  PolicyConfig pc;
  auto policy = MakeProportionalShare(pc);
  PoolSignal pool;
  pool.capacity_bytes = kGiB;
  // VM 0: want is within hysteresis of the limit; VM 1: busy.
  std::vector<VmSignal> vms = {
      Signal(64 * kMiB, 42 * kMiB, 40 * kMiB - pc.headroom_bytes),
      Signal(64 * kMiB, 20 * kMiB, 60 * kMiB)};
  vms[1].busy = true;
  const auto actions = Decide(policy.get(), pool, vms);
  EXPECT_EQ(actions[0].target_bytes, vms[0].limit_bytes);
  EXPECT_EQ(actions[1].target_bytes, vms[1].limit_bytes);
}

TEST(PressurePidPolicy, OverPressureFreezesGrowsButPassesShrinks) {
  PolicyConfig pc;
  auto policy = MakePressurePid(pc);
  PoolSignal pool;
  pool.capacity_bytes = kGiB;
  pool.pressure = 1.0;  // far above the 0.85 setpoint
  const std::vector<VmSignal> vms = {
      Signal(64 * kMiB, 20 * kMiB, 60 * kMiB),  // wants to grow
      Signal(64 * kMiB, 60 * kMiB, 20 * kMiB)};  // wants to shrink
  const auto actions = Decide(policy.get(), pool, vms);
  EXPECT_EQ(actions[0].target_bytes, vms[0].limit_bytes)
      << "grow must be frozen above the setpoint";
  EXPECT_EQ(actions[1].target_bytes, 20 * kMiB + pc.headroom_bytes)
      << "shrinks always pass (they relieve pressure)";
}

TEST(PressurePidPolicy, UnderPressureGrantsGrowsInIndexOrder) {
  PolicyConfig pc;
  auto policy = MakePressurePid(pc);
  PoolSignal pool;
  pool.capacity_bytes = kGiB;
  pool.pressure = 0.2;  // well below the setpoint: growth welcome
  const std::vector<VmSignal> vms(2, Signal(64 * kMiB, 20 * kMiB,
                                            50 * kMiB));
  const auto actions = Decide(policy.get(), pool, vms);
  for (const ResizeAction& action : actions) {
    EXPECT_EQ(action.target_bytes, 50 * kMiB + pc.headroom_bytes);
  }
}

TEST(MarketPolicyAdapter, HigherUtilizationGrantsLess) {
  PolicyConfig pc;
  const std::vector<VmSignal> vms = {Signal(64 * kMiB, 20 * kMiB,
                                            48 * kMiB)};
  PoolSignal idle;
  idle.capacity_bytes = kGiB;
  idle.used_bytes = 64 * kMiB;
  PoolSignal loaded = idle;
  loaded.used_bytes = static_cast<uint64_t>(0.97 * kGiB);

  // Fresh policy per reading: the adapter itself is stateless, but keep
  // the comparison clean.
  const auto cheap = Decide(MakeMarketPolicy(pc).get(), idle, vms);
  const auto dear = Decide(MakeMarketPolicy(pc).get(), loaded, vms);
  EXPECT_GE(cheap[0].target_bytes, dear[0].target_bytes)
      << "a dearer spot price must never grant more memory";
  EXPECT_GE(dear[0].target_bytes, pc.min_limit_bytes);
  EXPECT_LE(cheap[0].target_bytes, 64 * kMiB);
}

// ---------------------------------------------------------------------
// Admission control near pool exhaustion.
// ---------------------------------------------------------------------

TEST(FleetAdmission, RejectsGrowsNearExhaustionAndKeepsLedgerFeasible) {
  const uint64_t vm_bytes = 64 * kMiB;
  PolicyConfig pc;

  FleetConfig config;
  config.vms = 8;
  config.threads = 1;
  config.vm_bytes = vm_bytes;
  // Deep overcommit (~2.7x): every VM wanting its peak cannot fit, so
  // the ledger must clip and then reject grows.
  config.host_bytes = 8 * 24 * kMiB;
  config.horizon = 90 * sim::kSec;
  config.epoch = 5 * sim::kSec;
  config.record_series = false;
  config.initial_limit_bytes = pc.min_limit_bytes + pc.headroom_bytes;

  // Constant saturating demand from every VM.
  ArrivalConfig ac;
  ac.kind = ArrivalKind::kDiurnal;
  ac.horizon = config.horizon;
  ac.peak_bytes = vm_bytes;
  ac.duty = 1.0;
  auto arrivals = std::make_shared<std::unique_ptr<ArrivalProcess>>(
      MakeArrivalProcess(ac));

  FleetEngine engine(
      config, TestVmFactory(vm_bytes),
      [arrivals](uint64_t index) {
        DemandAgentConfig dc;
        dc.trace = (*arrivals)->Generate(index);
        return std::make_unique<DemandAgent>(dc);
      },
      MakeProportionalShare(pc));
  const FleetResult result = engine.Run();

  // Deep overcommit: grows still pass while there is headroom (clipped
  // to it once it runs short), and are refused near exhaustion.
  EXPECT_GT(result.admission.granted + result.admission.clipped, 0u);
  EXPECT_GT(result.admission.rejected, 0u)
      << "a 2.7x-overcommitted fleet must see grow rejections";

  // The ledger invariant the determinism contract rides on:
  // sum(final limits) stays within the reserve-adjusted capacity, read
  // back from the engine's pool.
  const uint64_t capacity = engine.host()->total_frames() * kFrameSize;
  const uint64_t usable = static_cast<uint64_t>(
      static_cast<double>(capacity) * (1.0 - kAdmissionReserve));
  uint64_t committed = 0;
  for (const uint64_t limit : result.final_limit_bytes) {
    committed += limit;
  }
  EXPECT_LE(committed, usable);
}

// ---------------------------------------------------------------------
// Permanent unmap faults: `bench_fleet --smoke --fault-plan='ept_unmap:0.6!'
// --fault-seed=42`'s shape (128 x 64 MiB VMs, 1.6x overcommit, bursty
// arrivals, 4 min horizon, 12 vCPUs, default quarantine limit). A frame
// quarantined after a permanent unmap fault counts against its VM's
// limit but stays mapped, so the admission ledger must still count it;
// otherwise the pool fills up, refuses reservations mid-epoch, and which
// worker hits a refusal depends on thread timing.
// ---------------------------------------------------------------------

struct PermanentFaultRun {
  FleetResult result;
  uint64_t usable_frames = 0;  // pool capacity less the admission reserve
  uint64_t quarantined_frames = 0;  // summed over every VM's injector
};

PermanentFaultRun RunPermanentFaultFleet(unsigned threads) {
  const uint64_t kVms = 128;
  const uint64_t vm_bytes = 64 * kMiB;
  PolicyConfig pc;

  FleetConfig config;
  config.vms = kVms;
  config.threads = threads;
  config.vm_bytes = vm_bytes;
  config.host_bytes = kVms * vm_bytes * 5 / 8;  // 1.6x overcommit
  config.horizon = 4 * sim::kMin;
  config.epoch = 5 * sim::kSec;
  config.record_series = false;
  config.initial_limit_bytes = pc.min_limit_bytes + pc.headroom_bytes;
  config.spike = {2 * sim::kMin, 32, 32 * kMiB};

  fault::Plan plan;
  std::string error;
  EXPECT_TRUE(fault::Plan::Parse("ept_unmap:0.6!", &plan, &error)) << error;
  plan.seed = 42;

  ArrivalConfig ac;
  ac.kind = ArrivalKind::kBursty;
  ac.horizon = config.horizon;
  auto arrivals = std::make_shared<std::unique_ptr<ArrivalProcess>>(
      MakeArrivalProcess(ac));

  FleetEngine engine(
      config, TestVmFactory(vm_bytes, plan, {}, /*vcpus=*/12),
      [arrivals](uint64_t index) {
        DemandAgentConfig dc;
        dc.trace = (*arrivals)->Generate(index);
        return std::make_unique<DemandAgent>(dc);
      },
      MakeProportionalShare(pc));
  PermanentFaultRun run;
  run.result = engine.Run();
  run.usable_frames = static_cast<uint64_t>(
      static_cast<double>(engine.host()->total_frames()) *
      (1.0 - kAdmissionReserve));
  for (uint64_t i = 0; i < kVms; ++i) {
    run.quarantined_frames += engine.injector(i)->quarantined_frames();
  }
  return run;
}

TEST(FleetAdmission, QuarantinedFramesStayInTheLedger) {
  const PermanentFaultRun run = RunPermanentFaultFleet(/*threads=*/1);
  // The plan must actually quarantine frames, or the bound is vacuous.
  ASSERT_GT(run.quarantined_frames, 0u);
  // The ledger keeps committed memory, quarantined frames included,
  // within the usable capacity, so the pool never climbs past it.
  EXPECT_LE(run.result.pool_peak_frames, run.usable_frames);
}

// Real threads (ctest label `stress`): the same faulted fleet on 1 and 4
// workers must agree on every per-VM outcome and on the telemetry and
// flight streams.
TEST(FleetDeterminism, PermanentUnmapFaultsIdenticalAcross1And4Threads) {
  const PermanentFaultRun one = RunPermanentFaultFleet(1);
  const PermanentFaultRun four = RunPermanentFaultFleet(4);
  EXPECT_EQ(one.result.fleet_digest, four.result.fleet_digest);
  EXPECT_TRUE(one.result.vm_digests == four.result.vm_digests);
  EXPECT_EQ(one.result.telemetry.telemetry_digest,
            four.result.telemetry.telemetry_digest);
  EXPECT_EQ(one.result.telemetry.flight_digest,
            four.result.telemetry.flight_digest);
}

// ---------------------------------------------------------------------
// Arrival processes.
// ---------------------------------------------------------------------

TEST(ArrivalProcessTest, DeterministicPerVmAndBounded) {
  for (const ArrivalKind kind :
       {ArrivalKind::kBursty, ArrivalKind::kDiurnal,
        ArrivalKind::kHeavyTailed}) {
    ArrivalConfig ac;
    ac.kind = kind;
    const auto process = MakeArrivalProcess(ac);
    const auto again = MakeArrivalProcess(ac);
    bool any_difference = false;
    for (uint64_t vm = 0; vm < 8; ++vm) {
      const std::vector<Arrival> trace = process->Generate(vm);
      const std::vector<Arrival> replay = again->Generate(vm);
      ASSERT_FALSE(trace.empty());
      ASSERT_EQ(trace.size(), replay.size());
      for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].at, replay[i].at);
        EXPECT_EQ(trace[i].bytes, replay[i].bytes);
        EXPECT_LT(trace[i].at, ac.horizon);
        EXPECT_GE(trace[i].bytes, ac.floor_bytes);
        EXPECT_LE(trace[i].bytes, ac.peak_bytes);
        EXPECT_EQ(trace[i].bytes % kArrivalQuantumBytes, 0u);
        if (i > 0) {
          EXPECT_GE(trace[i].at, trace[i - 1].at);
        }
      }
      if (vm > 0 &&
          !(trace.size() == process->Generate(0).size() &&
            std::equal(trace.begin(), trace.end(),
                       process->Generate(0).begin(),
                       [](const Arrival& a, const Arrival& b) {
                         return a.at == b.at && a.bytes == b.bytes;
                       }))) {
        any_difference = true;
      }
    }
    EXPECT_TRUE(any_difference)
        << "per-VM seed mixing produced identical traces for all of "
        << "8 VMs (" << process->name() << ")";
  }
}

TEST(ArrivalProcessTest, StepResizeTraceIsTheLegacySchedule) {
  const std::vector<Arrival> trace = StepResizeTrace(16 * kGiB);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].at, kShrinkAt);
  EXPECT_EQ(trace[0].bytes, kResizeTarget);
  EXPECT_EQ(trace[1].at, kGrowAt);
  EXPECT_EQ(trace[1].bytes, 16 * kGiB);
}

// ---------------------------------------------------------------------
// Fault composition through the fleet factory path.
// ---------------------------------------------------------------------

// One shrink with real reclaim work, as in bench_faults' probe.
class ShrinkProbe : public VmAgent {
 public:
  void Start(VmContext* context) override {
    context_ = context;
    workloads::MemoryPool pool(context->vm);
    const uint64_t memory = context->vm->config().memory_bytes;
    const uint64_t region =
        pool.AllocRegion(memory / 2, /*thp_fraction=*/0.9, 0);
    pool.FreeRegion(region, 0);
    context->vm->PurgeAllocatorCaches();
    issued_ = context->sim->now();
    context->deflator->Request(
        {.target_bytes = context->vm->config().memory_bytes / 4,
         .done = [this] {
           elapsed_ = context_->sim->now() - issued_;
           done_ = true;
         }});
  }
  bool finished() const override { return done_; }
  uint64_t demand_bytes() const override { return 0; }
  sim::Time elapsed() const { return elapsed_; }

 private:
  VmContext* context_ = nullptr;
  sim::Time issued_ = 0;
  sim::Time elapsed_ = 0;
  bool done_ = false;
};

struct FaultRun {
  hv::ResizeOutcome outcome;
  uint64_t injected = 0;
  sim::Time elapsed = 0;
};

FaultRun RunFaultedShrink(uint64_t seed) {
  fault::Plan plan;
  plan.seed = seed;
  plan.spec(fault::Site::kEptUnmap).probability = 0.05;
  plan.spec(fault::Site::kEptUnmap).kind = fault::Kind::kTransient;

  FleetConfig config;
  config.vms = 1;
  config.threads = 1;
  config.vm_bytes = 256 * kMiB;
  config.host_bytes = kGiB;
  config.run_to_completion = true;
  config.record_series = false;

  ShrinkProbe* probe = nullptr;
  FleetEngine engine(config, TestVmFactory(config.vm_bytes, plan),
                     [&probe](uint64_t) {
                       auto agent = std::make_unique<ShrinkProbe>();
                       probe = agent.get();
                       return agent;
                     },
                     /*policy=*/nullptr);
  engine.Run();

  FaultRun run;
  run.outcome = engine.deflator(0)->last_outcome();
  run.injected = engine.injector(0)->injected_total();
  run.elapsed = probe->elapsed();
  return run;
}

TEST(FleetFaults, InjectionComposesAndRecoversDeterministically) {
  const FaultRun first = RunFaultedShrink(/*seed=*/7);
  EXPECT_GT(first.injected, 0u) << "the armed plan never fired";
  EXPECT_GT(first.outcome.faults, 0u);
  EXPECT_TRUE(first.outcome.complete)
      << "transient EPT-unmap faults must be retried to completion";
  EXPECT_FALSE(first.outcome.quarantined);

  // Same seed => identical failure schedule => identical virtual cost.
  const FaultRun replay = RunFaultedShrink(/*seed=*/7);
  EXPECT_EQ(first.injected, replay.injected);
  EXPECT_EQ(first.outcome.faults, replay.outcome.faults);
  EXPECT_EQ(first.outcome.retries, replay.outcome.retries);
  EXPECT_EQ(first.elapsed, replay.elapsed);
}

}  // namespace
}  // namespace hyperalloc::fleet

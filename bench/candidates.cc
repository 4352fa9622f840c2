#include "bench/candidates.h"

#include "src/base/check.h"
#include "src/trace/trace.h"
#include "src/workloads/spec_prep.h"

namespace hyperalloc::bench {

const char* Name(Candidate candidate) {
  switch (candidate) {
    case Candidate::kBaselineBuddy:
      return "baseline(buddy)";
    case Candidate::kBaselineLLFree:
      return "baseline(llfree)";
    case Candidate::kBalloon:
      return "virtio-balloon";
    case Candidate::kBalloonHuge:
      return "virtio-balloon-huge";
    case Candidate::kVmem:
      return "virtio-mem";
    case Candidate::kVmemVfio:
      return "virtio-mem+VFIO";
    case Candidate::kHyperAlloc:
      return "HyperAlloc";
    case Candidate::kHyperAllocVfio:
      return "HyperAlloc+VFIO";
    case Candidate::kHyperAllocGeneric:
      return "HyperAlloc-generic";
  }
  return "?";
}

bool IsVfio(Candidate candidate) {
  return candidate == Candidate::kVmemVfio ||
         candidate == Candidate::kHyperAllocVfio;
}

bool HasDeflator(Candidate candidate) {
  return candidate != Candidate::kBaselineBuddy &&
         candidate != Candidate::kBaselineLLFree;
}

std::vector<Candidate> DeflationCandidates(bool include_vfio) {
  std::vector<Candidate> list = {Candidate::kBalloon, Candidate::kBalloonHuge,
                                 Candidate::kVmem, Candidate::kHyperAlloc,
                                 Candidate::kHyperAllocGeneric};
  if (include_vfio) {
    list.push_back(Candidate::kVmemVfio);
    list.push_back(Candidate::kHyperAllocVfio);
  }
  return list;
}

sim::Time Setup::SetLimit(uint64_t bytes) {
  HA_CHECK(deflator != nullptr);
  const sim::Time start = sim->now();
  bool done = false;
  deflator->Request({.target_bytes = bytes, .done = [&] { done = true; }});
  while (!done) {
    HA_CHECK(sim->Step());
  }
  return sim->now() - start;
}

Setup MakeSetup(Candidate candidate, const SetupOptions& options) {
  Setup setup;
  setup.candidate = candidate;
  setup.sim = std::make_unique<sim::Simulation>();
  setup.host =
      std::make_unique<hv::HostMemory>(FramesForBytes(options.host_bytes));
  VmBundle bundle =
      MakeVmBundle(setup.sim.get(), setup.host.get(), candidate, options);
  setup.vm = std::move(bundle.vm);
  setup.deflator = std::move(bundle.deflator);
  if (options.fault_plan.enabled()) {
    // Arm the injector only now: the VM (and, for virtio-mem+VFIO, its
    // boot-time pre-population) is fully constructed, so every fault
    // lands on a recoverable boundary.
    setup.fault = std::make_unique<fault::Injector>(options.fault_plan);
    setup.vm->SetFaultInjector(setup.fault.get());
    setup.host->SetFaultInjector(setup.fault.get());
  }
  return setup;
}

VmBundle MakeVmBundle(sim::Simulation* sim, hv::HostMemory* host,
                      Candidate candidate, const SetupOptions& options,
                      const std::string& name) {
  VmBundle setup;
  setup.candidate = candidate;

  // Stamp spans with this simulation's virtual clock. Benches run
  // one simulation at a time, so the last-created bundle owns the clock.
  trace::Tracer::Global().SetTimeSource(sim);

  guest::GuestConfig gc;
  gc.name = name;
  gc.memory_bytes = options.memory_bytes;
  gc.vcpus = options.vcpus;
  gc.vfio = IsVfio(candidate);

  switch (candidate) {
    case Candidate::kBaselineLLFree:
    case Candidate::kHyperAlloc:
    case Candidate::kHyperAllocVfio:
      gc.allocator = guest::AllocatorKind::kLLFree;
      gc.dma32_bytes = 2 * kGiB;
      break;
    case Candidate::kVmem:
    case Candidate::kVmemVfio:
      // 2 GiB of regular system memory plus hotpluggable Movable memory
      // (§5.2).
      gc.allocator = guest::AllocatorKind::kBuddy;
      gc.dma32_bytes = 0;
      gc.movable_bytes = options.memory_bytes - 2 * kGiB;
      break;
    default:
      gc.allocator = guest::AllocatorKind::kBuddy;
      gc.dma32_bytes = 2 * kGiB;
      break;
  }
  if (gc.memory_bytes <= gc.dma32_bytes) {
    gc.dma32_bytes = 0;  // small test VMs: single Normal zone
  }

  setup.vm = std::make_unique<guest::GuestVm>(sim, host, gc);

  switch (candidate) {
    case Candidate::kBalloon: {
      balloon::BalloonConfig config = options.balloon;
      config.huge = false;
      setup.deflator = std::make_unique<balloon::VirtioBalloon>(
          setup.vm.get(), config);
      break;
    }
    case Candidate::kBalloonHuge: {
      balloon::BalloonConfig config = options.balloon;
      config.huge = true;
      config.reporting_order = kHugeOrder;
      setup.deflator = std::make_unique<balloon::VirtioBalloon>(
          setup.vm.get(), config);
      break;
    }
    case Candidate::kVmem:
    case Candidate::kVmemVfio:
      setup.deflator = std::make_unique<vmem::VirtioMem>(setup.vm.get());
      break;
    case Candidate::kHyperAlloc:
    case Candidate::kHyperAllocVfio:
      setup.deflator = std::make_unique<core::HyperAllocMonitor>(
          setup.vm.get(), options.hyperalloc);
      break;
    case Candidate::kHyperAllocGeneric:
      setup.deflator =
          std::make_unique<core::GenericHyperAllocMonitor>(setup.vm.get());
      break;
    default:
      break;
  }
  return setup;
}

fleet::VmFactory MakeFleetVmFactory(Candidate candidate,
                                    const SetupOptions& options) {
  return [candidate, options](sim::Simulation* sim, hv::HostMemory* host,
                              uint64_t index, const std::string& name) {
    VmBundle bundle = MakeVmBundle(sim, host, candidate, options, name);
    fleet::FleetVmParts parts;
    parts.vm = std::move(bundle.vm);
    parts.deflator = std::move(bundle.deflator);
    if (options.fault_plan.enabled()) {
      // Same arm-after-boot rule as MakeSetup; the seed is decorrelated
      // per VM so fleet faults don't land in lockstep.
      fault::Plan plan = options.fault_plan;
      plan.seed += index;
      parts.fault = std::make_unique<fault::Injector>(plan);
      parts.vm->SetFaultInjector(parts.fault.get());
    }
    return parts;
  };
}

void PrepareVm(Setup* setup, workloads::MemoryPool* pool) {
  workloads::SpecPrepConfig prep;
  prep.peak_bytes = 18 * kGiB;
  prep.cache_bytes = 2560ull * kMiB;
  prep.residual_fraction = 0.03;
  workloads::SpecPrep(setup->vm.get(), pool, prep);
}

}  // namespace hyperalloc::bench

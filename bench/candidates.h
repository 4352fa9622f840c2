// Shared benchmark harness support: constructs the evaluation candidates
// of Table 1 (virtio-balloon, virtio-balloon-huge, virtio-mem ± VFIO,
// HyperAlloc ± VFIO) plus the static baselines, wired to a fresh
// simulation, host pool, and guest VM configured like the paper's (§5.2;
// modelling deviations catalogued in DESIGN.md §4.4):
// 12 vCPUs, 20 GiB (DMA32 2 GiB + Normal; for virtio-mem, 2 GiB regular +
// 18 GiB hotpluggable Movable memory).
#ifndef HYPERALLOC_BENCH_CANDIDATES_H_
#define HYPERALLOC_BENCH_CANDIDATES_H_

#include <memory>
#include <string>
#include <vector>

#include "src/balloon/virtio_balloon.h"
#include "src/core/hyperalloc.h"
#include "src/core/hyperalloc_generic.h"
#include "src/fault/fault.h"
#include "src/fleet/fleet.h"
#include "src/guest/guest_vm.h"
#include "src/hv/deflator.h"
#include "src/hv/host_memory.h"
#include "src/sim/simulation.h"
#include "src/vmem/virtio_mem.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::bench {

enum class Candidate {
  kBaselineBuddy,   // static VM, buddy allocator (paper's "Baseline")
  kBaselineLLFree,  // static VM, LLFree allocator (Fig. 7 "LLFree")
  kBalloon,
  kBalloonHuge,
  kVmem,
  kVmemVfio,
  kHyperAlloc,
  kHyperAllocVfio,
  // Extension (§6 Concept Generalization): HyperAlloc protocol over the
  // buddy allocator via the auxiliary (A, E) interface.
  kHyperAllocGeneric,
};

const char* Name(Candidate candidate);
bool IsVfio(Candidate candidate);
bool HasDeflator(Candidate candidate);

struct SetupOptions {
  uint64_t memory_bytes = 20 * kGiB;
  unsigned vcpus = 12;
  uint64_t host_bytes = 64 * kGiB;
  // virtio-balloon free-page-reporting knobs (Fig. 7 sweep).
  balloon::BalloonConfig balloon{};
  core::HyperAllocConfig hyperalloc{};
  // Deterministic fault injection (DESIGN.md §4.9). An enabled plan is
  // armed on the VM *after* boot-time population, so VM construction
  // itself never faults.
  fault::Plan fault_plan{};
};

struct Setup {
  Candidate candidate;
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<hv::HostMemory> host;
  std::unique_ptr<guest::GuestVm> vm;
  std::unique_ptr<hv::Deflator> deflator;  // null for the baselines
  std::unique_ptr<fault::Injector> fault;  // null when the plan is empty

  // Synchronously drives a limit change to completion; returns the
  // virtual time it took.
  sim::Time SetLimit(uint64_t bytes);
};

Setup MakeSetup(Candidate candidate, const SetupOptions& options = {});

// A VM + deflator pair living on an externally owned simulation and host
// pool — for multi-VM experiments (Fig. 11).
struct VmBundle {
  Candidate candidate;
  std::unique_ptr<guest::GuestVm> vm;
  std::unique_ptr<hv::Deflator> deflator;
};

VmBundle MakeVmBundle(sim::Simulation* sim, hv::HostMemory* host,
                      Candidate candidate, const SetupOptions& options = {},
                      const std::string& name = "vm");

// Fleet-construction path: a fleet::VmFactory that builds `candidate`
// VMs from `options` on the engine's simulations. When the fault plan
// is enabled, each VM gets its own injector with `plan.seed + index`
// (decorrelated per-VM fault schedules, same composition rules as
// MakeSetup).
fleet::VmFactory MakeFleetVmFactory(Candidate candidate,
                                    const SetupOptions& options = {});

// Runs the SPEC-style preparation (§5.4): grow the VM to its maximum
// and randomize the allocator state.
void PrepareVm(Setup* setup, workloads::MemoryPool* pool);

// All deflation candidates (no baselines), optionally including the
// VFIO variants.
std::vector<Candidate> DeflationCandidates(bool include_vfio);

}  // namespace hyperalloc::bench

#endif  // HYPERALLOC_BENCH_CANDIDATES_H_

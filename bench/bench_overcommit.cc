// Extension experiment (paper §6 "Beyond Memory Reclamation"): what
// happens when the guests' accumulated demand exceeds host memory?
//
// Two 16 GiB VMs with offset memory bursts share a 24 GiB host:
//   (a) transparent host swapping only (the hypervisor's classic
//       fallback) — the idle VM's stale memory must be discovered the
//       hard way, by evicting and faulting;
//   (b) HyperAlloc automatic reclamation (+ swap as backstop) — idle
//       memory is returned cooperatively before pressure builds.
//
// The two VMs are causally coupled through the swap manager, so they
// live on ONE simulation driven by one thread; each is built by the
// fleet VM factory (bench/candidates.h) against one host pool.
//
// Reported: total swap traffic, time spent in swap I/O, and the peak
// host usage. The paper's prediction: "HyperAlloc, because of its better
// memory efficiency, is expected to cause fewer and shorter
// out-of-memory situations."
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "bench/candidates.h"
#include "bench/trace_io.h"
#include "src/base/check.h"
#include "src/base/units.h"
#include "src/hv/host_memory.h"
#include "src/hv/swap.h"
#include "src/sim/simulation.h"
#include "src/workloads/blender.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::bench {
namespace {

// One tenant: a Blender render job starting at a per-VM offset. VM 1
// starts when VM 0 is mid-render; VM 0's memory goes idle (freed) before
// VM 1 peaks — cooperative reclamation can exploit that, swapping cannot
// (it only reacts to pressure).
class Tenant {
 public:
  Tenant(sim::Simulation* sim, fleet::FleetVmParts parts, sim::Time start_at)
      : parts_(std::move(parts)) {
    if (parts_.deflator != nullptr) {
      parts_.deflator->StartAuto();
    }
    pool_ = std::make_unique<workloads::MemoryPool>(parts_.vm.get());
    workloads::BlenderConfig job;
    job.working_set = 12 * kGiB;
    job.scene_bytes = kGiB;
    job.render_time = 3 * sim::kMin;
    job_ = std::make_unique<workloads::BlenderWorkload>(parts_.vm.get(),
                                                        pool_.get(), job);
    sim->At(start_at, [this] { job_->Run([this] { done_ = true; }); });
  }

  bool done() const { return done_; }

 private:
  fleet::FleetVmParts parts_;
  std::unique_ptr<workloads::MemoryPool> pool_;
  std::unique_ptr<workloads::BlenderWorkload> job_;
  bool done_ = false;
};

struct OvercommitResult {
  uint64_t swapped_out = 0;
  uint64_t swapped_in = 0;
  sim::Time runtime = 0;
  double peak_gib = 0.0;
};

OvercommitResult Run(bool hyperalloc_reclaim) {
  SetupOptions options;
  options.memory_bytes = 16 * kGiB;
  const fleet::VmFactory factory = MakeFleetVmFactory(
      hyperalloc_reclaim ? Candidate::kHyperAlloc
                         : Candidate::kBaselineLLFree,
      options);

  sim::Simulation sim;
  hv::HostMemory host(FramesForBytes(24 * kGiB));
  // Declared before the tenants so it outlives the VMs that call it.
  hv::SwapManager swap(&sim, &host);
  std::unique_ptr<Tenant> tenants[2];
  for (uint64_t i = 0; i < 2; ++i) {
    fleet::FleetVmParts parts =
        factory(&sim, &host, i, "vm" + std::to_string(i));
    // Register before the tenant starts: StartAuto and the job's
    // population must already see the swap backstop.
    swap.Register(parts.vm.get());
    tenants[i] = std::make_unique<Tenant>(
        &sim, std::move(parts), i == 0 ? 0 : 5 * sim::kMin + 30 * sim::kSec);
  }
  while (!tenants[0]->done() || !tenants[1]->done()) {
    HA_CHECK(sim.Step());
  }

  OvercommitResult result;
  result.swapped_out = swap.swapped_out_frames();
  result.swapped_in = swap.swapped_in_frames();
  result.runtime = sim.now();
  result.peak_gib = static_cast<double>(host.peak_frames()) *
                    static_cast<double>(kFrameSize) /
                    static_cast<double>(kGiB);
  return result;
}

int Main() {
  std::printf("Overcommit extension (6): two 16 GiB VMs, offset bursts, "
              "24 GiB host\n\n");
  std::printf("%-28s %14s %14s %10s %8s\n", "configuration", "swapped-out",
              "swapped-in", "runtime", "peak");
  for (const bool reclaim : {false, true}) {
    const OvercommitResult result = Run(reclaim);
    std::printf("%-28s %14s %14s %10s %7.1fG\n",
                reclaim ? "HyperAlloc auto + swap" : "swap only",
                FormatBytes(result.swapped_out * kFrameSize).c_str(),
                FormatBytes(result.swapped_in * kFrameSize).c_str(),
                FormatDuration(result.runtime).c_str(), result.peak_gib);
    std::fflush(stdout);
  }
  std::printf("\nCooperative reclamation returns idle memory before "
              "pressure builds; transparent swapping discovers it the "
              "expensive way.\n");
  return 0;
}

}  // namespace
}  // namespace hyperalloc::bench

int main(int argc, char** argv) {
  hyperalloc::bench::TraceOutput trace_out(argc, argv);
  return hyperalloc::bench::Main();
}

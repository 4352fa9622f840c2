// E6 — reproduces Fig. 9 (§5.5): the clang compilation with DMA-safe
// automatic reclamation — HyperAlloc vs. virtio-mem, both with a VFIO
// passthrough device whose IOMMU mappings must stay in sync.
#include <sys/stat.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/compile_harness.h"
#include "bench/fleet_bench.h"
#include "bench/trace_io.h"

namespace hyperalloc::bench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: bench_vfio_compile [--runs=N (>= 1)] "
               "[--trace-out=PATH | --trace-out PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  uint64_t runs = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--runs=", 7) == 0) {
      if (!ParseUint64(argv[i] + 7, 10, &runs) || runs < 1) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      ++i;  // the path; TraceOutput reads both forms
    } else if (std::strncmp(argv[i], "--trace-out=", 12) != 0) {
      return Usage();
    }
  }
  ::mkdir("bench_out", 0755);

  std::printf("Fig. 9: clang compilation with VFIO-based DMA safety "
              "(16 GiB VM, %" PRIu64 " run%s)\n\n", runs,
              runs == 1 ? "" : "s");
  std::printf("%-20s %12s %9s %10s %10s\n", "candidate", "footprint",
              "runtime", "iommu-maps", "iotlb-flsh");
  std::printf("%-20s %12s %9s %10s %10s\n", "", "[GiB*min]", "[min]", "",
              "");

  const Candidate candidates[] = {Candidate::kVmemVfio,
                                  Candidate::kHyperAllocVfio,
                                  Candidate::kVmem,  // non-VFIO reference
                                  Candidate::kHyperAlloc};
  double footprint_of[4] = {0, 0, 0, 0};
  int idx = 0;
  for (const Candidate candidate : candidates) {
    double footprint = 0.0;
    double runtime = 0.0;
    uint64_t iommu_maps = 0;
    uint64_t iotlb = 0;
    for (uint64_t run = 0; run < runs; ++run) {
      CompileRunOptions options;
      options.memory_bytes = 16 * kGiB;
      options.compile.seed = 1 + run;
      options.compile.compile_units = 800;
      options.compile.link_jobs = 16;
      options.compile.thp_fraction = 0.6;
      options.compile.cache_read_per_unit = 5 * kMiB;
      options.compile.artifact_per_unit = 8 * kMiB;
      const CompileRunResult result = RunCompile(candidate, options);
      footprint += result.footprint_gib_min / runs;
      runtime += result.runtime_min / runs;
      iommu_maps += result.iommu_maps / runs;
      iotlb += result.iotlb_flushes / runs;
    }
    footprint_of[idx++] = footprint;
    std::printf("%-20s %12.1f %9.2f %10llu %10llu\n", Name(candidate),
                footprint, runtime,
                static_cast<unsigned long long>(iommu_maps),
                static_cast<unsigned long long>(iotlb));
    std::fflush(stdout);
  }

  std::printf("\nvirtio-mem+VFIO footprint overhead vs HyperAlloc+VFIO: "
              "%.1f%%  (paper: 39.8%%)\n",
              (footprint_of[0] / footprint_of[1] - 1.0) * 100.0);
  std::printf("virtio-mem without VFIO is %.1f%% more efficient "
              "(paper: 3.7%%)\n",
              (1.0 - footprint_of[2] / footprint_of[0]) * 100.0);
  std::printf("HyperAlloc VFIO overhead: %.1f%%  (paper: negligible)\n",
              (footprint_of[1] / footprint_of[3] - 1.0) * 100.0);
  return 0;
}

}  // namespace
}  // namespace hyperalloc::bench

int main(int argc, char** argv) {
  hyperalloc::bench::TraceOutput trace_out(argc, argv);
  return hyperalloc::bench::Main(argc, argv);
}

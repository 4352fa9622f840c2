// E8 — reproduces Fig. 11 (§5.6): N 16 GiB VMs on one host (default 3,
// as in the paper), each compiling clang three times with long idle gaps,
// with (a) simultaneous and (b) offset peak memory consumption. Compares
// no reclamation, virtio-balloon free-page reporting, and HyperAlloc on
// accumulated footprint and peak host memory demand.
//
// Each VM runs in its own virtual-time simulation against the shared
// host pool, so the experiment parallelizes across host threads
// (--threads=N) without changing any result series — see
// src/fleet/fleet.h for the determinism contract. This bench is a thin
// client of the fleet engine's run-to-completion mode.
//
// Time is compressed relative to the paper (builds take ~10 min here vs
// ~35 min on the authors' testbed); gaps and offsets are scaled to keep
// the same proportions.
#include <sys/stat.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/fleet_bench.h"
#include "bench/trace_io.h"

namespace hyperalloc::bench {
namespace {

workloads::CompileConfig BuildConfig() {
  workloads::CompileConfig config;
  config.seed = 100;
  config.compile_units = 800;
  config.link_jobs = 16;
  config.thp_fraction = 0.6;
  config.cache_read_per_unit = 5 * kMiB;
  config.artifact_per_unit = 8 * kMiB;
  return config;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_multivm [--vms=N (>= 1)] [--threads=N (>= 1)] "
               "[--trace-out=PATH | --trace-out PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  uint64_t vms = 3;
  unsigned threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--vms=", 6) == 0) {
      if (!ParseUint64(argv[i] + 6, 10, &vms) || vms < 1) {
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      if (!ParseThreads(argv[i] + 10, &threads)) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      ++i;  // the path; TraceOutput reads both forms
    } else if (std::strncmp(argv[i], "--trace-out=", 12) != 0) {
      return Usage();
    }
  }

  ::mkdir("bench_out", 0755);
  std::printf("Fig. 11: %" PRIu64 " 16 GiB VMs compiling clang 3x each "
              "(%" PRIu64 " GiB provisioned, %u host thread%s)\n\n",
              vms, vms * 16, threads, threads == 1 ? "" : "s");

  struct Row {
    Candidate candidate;
    const char* label;
    const char* tag;
  };
  const Row rows[] = {
      {Candidate::kBaselineBuddy, "no reclamation", "baseline"},
      {Candidate::kBalloon, "virtio-balloon", "balloon"},
      {Candidate::kHyperAlloc, "HyperAlloc", "hyperalloc"},
  };

  for (const bool offset : {false, true}) {
    std::printf("%s peaks (Fig. 11%s):\n",
                offset ? "offset" : "simultaneous", offset ? "b" : "a");
    std::printf("  %-20s %14s %10s %10s\n", "candidate", "footprint",
                "peak", "wall");
    std::printf("  %-20s %14s %10s %10s\n", "", "[GiB*min]", "[GiB]",
                "[ms]");
    for (const Row& row : rows) {
      CompileFleetOptions options;
      options.vms = vms;
      options.threads = threads;
      options.candidate = row.candidate;
      options.offset = offset;
      options.compile = BuildConfig();
      const fleet::FleetResult result = RunCompileFleet(options);
      WriteFleetCsvs(result, std::string(offset ? "offset_" : "aligned_") +
                                 row.tag);
      std::printf("  %-20s %14.0f %10.2f %10.0f\n", row.label,
                  result.footprint_gib_min, result.peak_gib, result.wall_ms);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("Series written to bench_out/multivm_*.csv (per VM and "
              "merged)\n");
  return 0;
}

}  // namespace
}  // namespace hyperalloc::bench

int main(int argc, char** argv) {
  hyperalloc::bench::TraceOutput trace_out(argc, argv);
  return hyperalloc::bench::Main(argc, argv);
}

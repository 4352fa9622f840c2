// E1 — reproduces Fig. 4 (reclamation/return speed, §5.3) and Table 1
// (candidate capability matrix).
//
// Procedure (per candidate, repeated `--reps` times on fresh VMs):
//   prepare:          write into 19 GiB of guest pages, then free them
//   reclaim:          shrink the hard limit 20 GiB -> 2 GiB
//   return:           grow 2 GiB -> 20 GiB (no access)
//   reclaim untouched: shrink again (memory never re-accessed)
//   return+install:   grow again, then allocate and write 18 GiB
//
// Rates are GiB/s of limit change in virtual time; error is the 95 %
// confidence interval over the repetitions.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/candidates.h"
#include "bench/fleet_bench.h"
#include "bench/trace_io.h"
#include "src/base/stats.h"
#include "src/base/units.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::bench {
namespace {

constexpr uint64_t kMemory = 20 * kGiB;
constexpr uint64_t kSmall = 2 * kGiB;
constexpr uint64_t kPrepare = 19 * kGiB;
constexpr uint64_t kDelta = kMemory - kSmall;

struct Rates {
  std::vector<double> reclaim;
  std::vector<double> reclaim_untouched;
  std::vector<double> ret;
  std::vector<double> ret_install;
};

double Gibps(uint64_t bytes, sim::Time ns) {
  return static_cast<double>(bytes) / static_cast<double>(kGiB) /
         (static_cast<double>(ns) / 1e9);
}

void RunOnce(Candidate candidate, Rates* rates) {
  Setup setup = MakeSetup(candidate);
  workloads::MemoryPool pool(setup.vm.get());

  // Prepare: make 19 GiB of guest memory host-backed (the paper writes
  // into the pages via a kernel module before the benchmark).
  const uint64_t prep = pool.AllocRegion(kPrepare, /*thp_fraction=*/0.95, 0);
  pool.FreeRegion(prep, 0);
  setup.vm->PurgeAllocatorCaches();

  rates->reclaim.push_back(Gibps(kDelta, setup.SetLimit(kSmall)));
  rates->ret.push_back(Gibps(kDelta, setup.SetLimit(kMemory)));
  rates->reclaim_untouched.push_back(Gibps(kDelta, setup.SetLimit(kSmall)));

  // Return + install: grow and immediately allocate + write 18 GiB
  // (single-threaded guest kernel module in the paper).
  const sim::Time t0 = setup.sim->now();
  setup.SetLimit(kMemory);
  const uint64_t install = pool.AllocRegion(18 * kGiB, 0.95, 0);
  rates->ret_install.push_back(Gibps(kDelta, setup.sim->now() - t0));
  pool.FreeRegion(install, 0);
}

void PrintMatrix() {
  std::printf("Table 1: evaluation candidates and their properties\n");
  std::printf("%-22s %-12s %-7s %-6s %-9s\n", "name", "granularity",
              "manual", "auto", "dma-safe");
  struct Row {
    Candidate candidate;
    bool manual;
    bool auto_mode;
  };
  const Row rows[] = {
      {Candidate::kBalloon, true, true},
      {Candidate::kBalloonHuge, true, true},
      {Candidate::kVmem, true, false},
      {Candidate::kHyperAlloc, true, true},
  };
  for (const Row& row : rows) {
    Setup setup = MakeSetup(row.candidate, {.memory_bytes = 4 * kGiB});
    const hv::DeflatorCaps caps = setup.deflator->caps();
    std::printf("%-22s %-12s %-7s %-6s %-9s\n", Name(row.candidate),
                FormatBytes(caps.granularity_bytes).c_str(),
                row.manual ? "yes" : "no", row.auto_mode ? "yes" : "no",
                caps.dma_safe ? "yes" : "no");
  }
  std::printf("(VProbe omitted: implementation unavailable, as in the "
              "paper)\n\n");
}

void PrintRow(const char* name, const std::vector<double>& rates) {
  const Summary s = Summarize(rates);
  std::printf("  %-22s %9.2f GiB/s  (+/- %.2f)\n", name, s.mean, s.ci95);
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_inflate [--reps=N (>= 1)] [--matrix] "
               "[--trace-out=PATH | --trace-out PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  uint64_t reps = 5;
  bool matrix_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      if (!ParseUint64(argv[i] + 7, 10, &reps) || reps < 1) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--matrix") == 0) {
      matrix_only = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      ++i;  // the path; TraceOutput reads both forms
    } else if (std::strncmp(argv[i], "--trace-out=", 12) != 0) {
      return Usage();
    }
  }

  PrintMatrix();
  if (matrix_only) {
    return 0;
  }

  std::printf("Fig. 4: speed of reclaiming/returning memory "
              "(20 GiB <-> 2 GiB, %" PRIu64 " repetitions)\n\n", reps);

  std::vector<std::pair<Candidate, Rates>> results;
  for (const Candidate candidate : DeflationCandidates(true)) {
    Rates rates;
    for (uint64_t rep = 0; rep < reps; ++rep) {
      RunOnce(candidate, &rates);
    }
    results.emplace_back(candidate, std::move(rates));
  }

  const char* const kSections[] = {"Reclaim", "Reclaim Untouched", "Return",
                                   "Return+Install"};
  for (int section = 0; section < 4; ++section) {
    std::printf("%s:\n", kSections[section]);
    for (const auto& [candidate, rates] : results) {
      const std::vector<double>* data = nullptr;
      switch (section) {
        case 0:
          data = &rates.reclaim;
          break;
        case 1:
          data = &rates.reclaim_untouched;
          break;
        case 2:
          data = &rates.ret;
          break;
        default:
          data = &rates.ret_install;
          break;
      }
      PrintRow(Name(candidate), *data);
    }
    std::printf("\n");
  }

  // Headline ratios (paper: 362x vs virtio-balloon, 10x vs virtio-mem).
  const double ha = Summarize(results[3].second.reclaim).mean;
  const double balloon = Summarize(results[0].second.reclaim).mean;
  const double vmem = Summarize(results[2].second.reclaim).mean;
  std::printf("HyperAlloc reclaim speedup: %.0fx vs virtio-balloon, "
              "%.1fx vs virtio-mem\n",
              ha / balloon, ha / vmem);
  return 0;
}

}  // namespace
}  // namespace hyperalloc::bench

int main(int argc, char** argv) {
  hyperalloc::bench::TraceOutput trace_out(argc, argv);
  return hyperalloc::bench::Main(argc, argv);
}

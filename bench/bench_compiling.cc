// E4/E5 — reproduces Fig. 7 (memory footprint, runtime, and QEMU CPU
// times of a clang compilation under automatic reclamation, including the
// virtio-balloon parameter sweep) and, with --detail, Fig. 8 (the
// in-depth time series with `make clean` and cache dropping).
//
//   bench_compiling                Fig. 7 table (use --extra for the full
//                                  o/d/c sweep, --runs=N for averaging)
//   bench_compiling --detail       Fig. 8 CSV series for virtio-balloon
//                                  (default reporting config) + HyperAlloc
#include <sys/stat.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/compile_harness.h"
#include "bench/fleet_bench.h"
#include "bench/trace_io.h"
#include "src/base/stats.h"

namespace hyperalloc::bench {
namespace {

struct Config {
  std::string label;
  Candidate candidate;
  balloon::BalloonConfig balloon;
  bool auto_reclaim = true;
};

std::vector<Config> BuildConfigs(bool extra) {
  std::vector<Config> configs;
  configs.push_back({"Buddy (baseline)", Candidate::kBaselineBuddy, {}, false});
  configs.push_back(
      {"LLFree (baseline)", Candidate::kBaselineLLFree, {}, false});

  // virtio-balloon free-page reporting; the kernel default (o=9, d=2 s,
  // c=32) is the paper's bold row.
  auto fpr = [](unsigned order, sim::Time delay, unsigned capacity) {
    balloon::BalloonConfig config;
    config.reporting_order = order;
    config.reporting_delay = delay;
    config.reporting_capacity = capacity;
    return config;
  };
  configs.push_back({"virtio-balloon (o=9 d=2000 c=32) [default]",
                     Candidate::kBalloon, fpr(9, 2 * sim::kSec, 32)});
  if (extra) {
    configs.push_back({"virtio-balloon (o=9 d=100 c=32)",
                       Candidate::kBalloon, fpr(9, 100 * sim::kMs, 32)});
    configs.push_back({"virtio-balloon (o=9 d=2000 c=512)",
                       Candidate::kBalloon, fpr(9, 2 * sim::kSec, 512)});
    configs.push_back({"virtio-balloon (o=0 d=100 c=32)",
                       Candidate::kBalloon, fpr(0, 100 * sim::kMs, 32)});
    configs.push_back({"virtio-balloon (o=0 d=2000 c=512)",
                       Candidate::kBalloon, fpr(0, 2 * sim::kSec, 512)});
  }
  configs.push_back({"virtio-mem (simulated auto)", Candidate::kVmem, {}});
  configs.push_back({"HyperAlloc", Candidate::kHyperAlloc, {}});
  // Ablation (6): the HyperAlloc protocol without the co-designed
  // allocator — aux-state interface over the buddy allocator.
  configs.push_back(
      {"HyperAlloc-generic (buddy + aux state)", Candidate::kHyperAllocGeneric,
       {}});
  return configs;
}

CompileRunOptions MakeOptions(const Config& config, uint64_t seed) {
  CompileRunOptions options;
  options.memory_bytes = 16 * kGiB;
  options.compile.seed = seed;
  options.compile.compile_units = 800;
  options.compile.link_jobs = 16;
  options.compile.thp_fraction = 0.6;
  options.compile.cache_read_per_unit = 5 * kMiB;
  options.compile.artifact_per_unit = 8 * kMiB;
  options.auto_reclaim = config.auto_reclaim;
  options.setup_options.balloon = config.balloon;
  return options;
}

int RunTable(uint64_t runs, bool extra) {
  std::printf("Fig. 7: clang compilation with automatic reclamation "
              "(16 GiB VM, %" PRIu64 " run%s per candidate)\n\n",
              runs, runs == 1 ? "" : "s");
  std::printf("%-42s %12s %9s %8s %8s %8s\n", "candidate",
              "footprint", "runtime", "guest", "user", "system");
  std::printf("%-42s %12s %9s %8s %8s %8s\n", "", "[GiB*min]", "[min]",
              "[s]", "[s]", "[s]");

  for (const Config& config : BuildConfigs(extra)) {
    std::vector<double> footprint;
    std::vector<double> runtime;
    hv::CpuAccounting cpu;
    sim::Time fault_ns = 0;
    uint64_t oom = 0;
    for (uint64_t run = 0; run < runs; ++run) {
      const CompileRunResult result =
          RunCompile(config.candidate, MakeOptions(config, 1 + run));
      footprint.push_back(result.footprint_gib_min);
      runtime.push_back(result.runtime_min);
      cpu.guest_ns += result.cpu.guest_ns / runs;
      cpu.host_user_ns += result.cpu.host_user_ns / runs;
      cpu.host_sys_ns += result.cpu.host_sys_ns / runs;
      fault_ns += result.fault_time / runs;
      oom += result.oom_events;
    }
    const Summary fp = Summarize(footprint);
    const Summary rt = Summarize(runtime);
    std::printf("%-42s %8.1f+/-%-4.1f %9.2f %8.2f %8.2f %8.2f%s\n",
                config.label.c_str(), fp.mean, fp.ci95, rt.mean,
                static_cast<double>(cpu.guest_ns) / 1e9,
                static_cast<double>(cpu.host_user_ns) / 1e9,
                static_cast<double>(cpu.host_sys_ns + fault_ns) / 1e9,
                oom > 0 ? "  [OOM!]" : "");
    std::fflush(stdout);
  }
  return 0;
}

int RunDetail() {
  ::mkdir("bench_out", 0755);
  std::printf("Fig. 8: in-depth clang compilation analysis "
              "(build + idle + make clean + idle + drop caches)\n\n");

  const Config detail_configs[] = {
      {"virtio-balloon (o=9 d=2000 c=32)", Candidate::kBalloon,
       [] {
         balloon::BalloonConfig config;
         config.reporting_order = 9;
         return config;
       }()},
      {"HyperAlloc", Candidate::kHyperAlloc, {}},
  };
  for (const Config& config : detail_configs) {
    CompileRunOptions options = MakeOptions(config, 1);
    options.detail_tail = true;
    const CompileRunResult result = RunCompile(config.candidate, options);
    const std::string base = std::string("bench_out/compiling_detail_") +
                             (config.candidate == Candidate::kBalloon
                                  ? "balloon"
                                  : "hyperalloc");
    result.rss.WriteCsv(base + "_rss.csv", "vm_gib");
    result.huge.WriteCsv(base + "_huge.csv", "huge_gib");
    result.small.WriteCsv(base + "_small.csv", "small_gib");
    result.cached.WriteCsv(base + "_cached.csv", "cached_gib");
    std::printf("%-36s end RSS %.2f GiB (min over tail %.2f GiB), "
                "series -> %s_*.csv\n",
                config.label.c_str(), result.rss.Last(), result.rss.Min(),
                base.c_str());
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_compiling [--runs=N (>= 1)] [--extra] "
               "[--detail] [--trace-out=PATH | --trace-out PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  uint64_t runs = 2;
  bool extra = false;
  bool detail = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--runs=", 7) == 0) {
      if (!ParseUint64(argv[i] + 7, 10, &runs) || runs < 1) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--extra") == 0) {
      extra = true;
    } else if (std::strcmp(argv[i], "--detail") == 0) {
      detail = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      ++i;  // the path; TraceOutput reads both forms
    } else if (std::strncmp(argv[i], "--trace-out=", 12) != 0) {
      return Usage();
    }
  }
  if (detail) {
    return RunDetail();
  }
  return RunTable(runs, extra);
}

}  // namespace
}  // namespace hyperalloc::bench

int main(int argc, char** argv) {
  hyperalloc::bench::TraceOutput trace_out(argc, argv);
  return hyperalloc::bench::Main(argc, argv);
}

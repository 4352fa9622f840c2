// E3 — reproduces Fig. 6 and the FTQ half of Table 2 (§5.4): CPU work per
// fixed time quantum while the VM is resized, for 1/4/12 threads. Writes
// the aggregated work series to bench_out/ftq_<candidate>_<threads>.csv.
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/candidates.h"
#include "bench/trace_io.h"
#include "src/base/stats.h"
#include "src/fleet/arrival.h"
#include "src/workloads/ftq.h"
#include "src/workloads/interference_hub.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::bench {
namespace {

std::string Slug(const char* name) {
  std::string s(name);
  for (char& c : s) {
    if (c == '(' || c == ')' || c == '+') {
      c = '_';
    }
  }
  return s;
}

double RunOne(Candidate candidate, unsigned threads, bool write_csv) {
  Setup setup = MakeSetup(candidate);
  workloads::MemoryPool pool(setup.vm.get());

  workloads::FtqConfig config;
  config.threads = threads;
  config.vcpus = 12;
  config.samples = 1096;  // ~140 s, as in the paper

  workloads::FtqWorkload ftq(setup.sim.get(), config);
  workloads::InterferenceHub hub(&ftq.vcpus(), {}, threads,
                                 /*ipi_sensitivity=*/0.6);
  setup.vm->SetInterferenceSink(&hub);

  PrepareVm(&setup, &pool);
  const sim::Time start = setup.sim->now();
  fleet::ApplyResizeSchedule(
      setup.sim.get(), setup.deflator.get(),
      fleet::StepResizeTrace(setup.vm->config().memory_bytes), start);

  bool done = false;
  ftq.Start([&] { done = true; });
  while (!done) {
    HA_CHECK(setup.sim->Step());
  }

  if (write_csv) {
    const std::string path = "bench_out/ftq_" + Slug(Name(candidate)) + "_" +
                             std::to_string(threads) + ".csv";
    metrics::TimeSeries shifted;
    for (const auto& p : ftq.samples().points()) {
      shifted.Sample(p.at - start, p.value);
    }
    shifted.WriteCsv(path, "work_units");
  }

  std::vector<double> values;
  for (const auto& p : ftq.samples().points()) {
    values.push_back(p.value);
  }
  return Percentile(values, 0.01);
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_ftq [--no-csv] "
               "[--trace-out=PATH | --trace-out PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  bool write_csv = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-csv") == 0) {
      write_csv = false;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      ++i;  // the path; TraceOutput reads both forms
    } else if (std::strncmp(argv[i], "--trace-out=", 12) != 0) {
      return Usage();
    }
  }
  if (write_csv) {
    ::mkdir("bench_out", 0755);
  }

  const Candidate candidates[] = {
      Candidate::kBaselineBuddy, Candidate::kBalloon,
      Candidate::kBalloonHuge,   Candidate::kVmem,
      Candidate::kVmemVfio,      Candidate::kHyperAlloc,
      Candidate::kHyperAllocVfio};
  const unsigned thread_counts[] = {1, 4, 12};

  std::printf("Table 2 (FTQ): 1st percentile work per quantum [1e6] during "
              "resize (shrink @20 s, grow @90 s)\n\n");
  std::printf("%-22s %8s %8s %8s\n", "candidate", "1", "4", "12");
  for (const Candidate candidate : candidates) {
    std::printf("%-22s", Name(candidate));
    for (const unsigned threads : thread_counts) {
      const double p1 = RunOne(candidate, threads, write_csv);
      std::printf(" %8.2f", p1 / 1e6);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  if (write_csv) {
    std::printf("\nWork series written to bench_out/ftq_*.csv (Fig. 6)\n");
  }
  return 0;
}

}  // namespace
}  // namespace hyperalloc::bench

int main(int argc, char** argv) {
  hyperalloc::bench::TraceOutput trace_out(argc, argv);
  return hyperalloc::bench::Main(argc, argv);
}

// E2 — reproduces Fig. 5 and the STREAM half of Table 2 (§5.4): memory
// bandwidth over time while the VM is shrunk (t=20 s) and grown (t=90 s),
// for 1/4/12 threads. Writes per-iteration scatter data to
// bench_out/stream_<candidate>_<threads>.csv and prints the
// 1st-percentile table.
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "bench/candidates.h"
#include "bench/trace_io.h"
#include "src/base/stats.h"
#include "src/fleet/arrival.h"
#include "src/workloads/interference_hub.h"
#include "src/workloads/stream.h"

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

  workloads::StreamConfig config;
  config.threads = threads;
  config.vcpus = 12;
  // Iterations chosen so the baseline run lasts ~135 s (§5.4: "the
  // slowest candidate took 140 s").
  const double per_thread_bw =
      workloads::StreamAggregateBandwidth(threads) /
      static_cast<double>(threads);
  const double iter_s =
      static_cast<double>(workloads::kStreamBytesPerIteration) /
      per_thread_bw / 1e9;
  config.iterations = static_cast<unsigned>(135.0 / iter_s);

  workloads::StreamWorkload stream(setup.sim.get(), config);
  workloads::InterferenceHub hub(&stream.vcpus(),
                                 stream.bandwidth_timelines(), threads);
  setup.vm->SetInterferenceSink(&hub);

  PrepareVm(&setup, &pool);
  const sim::Time start = setup.sim->now();
  fleet::ApplyResizeSchedule(
      setup.sim.get(), setup.deflator.get(),
      fleet::StepResizeTrace(setup.vm->config().memory_bytes), start);

  bool done = false;
  stream.Start([&] { done = true; });
  while (!done) {
    HA_CHECK(setup.sim->Step());
  }

  if (write_csv) {
    const std::string path = "bench_out/stream_" + Slug(Name(candidate)) +
                             "_" + std::to_string(threads) + ".csv";
    metrics::TimeSeries shifted;
    for (const auto& p : stream.samples().points()) {
      shifted.Sample(p.at - start, p.value);
    }
    shifted.WriteCsv(path, "bandwidth_gb_s");
  }

  std::vector<double> values;
  for (const auto& p : stream.samples().points()) {
    values.push_back(p.value);
  }
  return Percentile(values, 0.01);
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_stream [--no-csv] "
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

  std::printf("Table 2 (STREAM): 1st percentile bandwidth [GB/s] during "
              "resize (shrink @20 s, grow @90 s)\n\n");
  std::printf("%-22s %8s %8s %8s\n", "candidate", "1", "4", "12");
  for (const Candidate candidate : candidates) {
    std::printf("%-22s", Name(candidate));
    for (const unsigned threads : thread_counts) {
      const double p1 = RunOne(candidate, threads, write_csv);
      // Per-thread percentile scaled to aggregate for multi-thread rows
      // (Table 2 reports machine bandwidth).
      std::printf(" %8.1f", p1 * threads);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  if (write_csv) {
    std::printf("\nScatter series written to bench_out/stream_*.csv "
                "(Fig. 5)\n");
  }
  return 0;
}

}  // namespace
}  // namespace hyperalloc::bench

int main(int argc, char** argv) {
  hyperalloc::bench::TraceOutput trace_out(argc, argv);
  return hyperalloc::bench::Main(argc, argv);
}

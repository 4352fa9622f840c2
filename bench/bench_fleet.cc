// Fleet-scale policy scenarios: N small VMs (default 128, up to 1024+)
// on an overcommitted host, demand driven by a deterministic arrival
// process, limits driven by a pluggable resize policy under admission
// control. Verifies the engine determinism contract by running the same
// scenario with 1 and N worker threads and comparing fleet digests, and
// compares the stock policies on the same traffic.
//
// Emits the `hyperalloc-bench-fleet-v1` JSON document with --out=FILE
// (the same object bench_runner embeds under benches.fleet).
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/fleet_bench.h"
#include "bench/trace_io.h"
#include "src/telemetry/export.h"

namespace hyperalloc::bench {
namespace {

FleetScenarioOptions BaseOptions(uint64_t vms, unsigned threads) {
  FleetScenarioOptions options;
  options.vms = vms;
  options.threads = threads;
  return options;
}

int Main(int argc, char** argv) {
  uint64_t vms = 128;
  unsigned threads = 4;
  std::string policy = "proportional-share";
  std::string arrival = "bursty";
  std::string out;
  std::string fault_plan_spec;
  uint64_t fault_seed = 42;
  std::string telemetry_out;
  bool no_telemetry = false;
  bool smoke = false;
  bool huge = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--vms=", 6) == 0) {
      vms = static_cast<uint64_t>(std::atoll(argv[i] + 6));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<unsigned>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--policy=", 9) == 0) {
      policy = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--arrival=", 10) == 0) {
      arrival = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--fault-plan=", 13) == 0) {
      fault_plan_spec = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--fault-seed=", 13) == 0) {
      fault_seed = static_cast<uint64_t>(std::atoll(argv[i] + 13));
    } else if (std::strncmp(argv[i], "--telemetry-out=", 16) == 0) {
      telemetry_out = argv[i] + 16;
    } else if (std::strcmp(argv[i], "--no-telemetry") == 0) {
      no_telemetry = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--huge") == 0) {
      huge = true;
    }
  }
  if (smoke) {
    vms = std::min<uint64_t>(vms, 128);
  }

  FleetScenarioOptions options = BaseOptions(vms, threads);
  options.policy = policy;
  options.huge = huge;
  options.telemetry.enabled = !no_telemetry;
  if (!fault_plan_spec.empty()) {
    options.fault_plan.seed = fault_seed;
    std::string error;
    if (!fault::Plan::Parse(fault_plan_spec, &options.fault_plan, &error)) {
      std::fprintf(stderr, "bad --fault-plan: %s\n", error.c_str());
      return 1;
    }
  }
  if (arrival == "bursty") {
    options.arrival.kind = fleet::ArrivalKind::kBursty;
  } else if (arrival == "diurnal") {
    options.arrival.kind = fleet::ArrivalKind::kDiurnal;
  } else if (arrival == "heavy-tailed") {
    options.arrival.kind = fleet::ArrivalKind::kHeavyTailed;
  } else {
    std::fprintf(stderr, "unknown arrival '%s'\n", arrival.c_str());
    return 1;
  }

  std::printf("fleet: %llu x %llu MiB VMs, %.2gx overcommit, %s arrivals, "
              "policy %s, horizon %llu s\n\n",
              static_cast<unsigned long long>(options.vms),
              static_cast<unsigned long long>(options.vm_bytes / kMiB),
              options.overcommit, arrival.c_str(), policy.c_str(),
              static_cast<unsigned long long>(options.horizon / sim::kSec));

  // Determinism: the same scenario with 1 worker thread and with N must
  // produce the same per-VM outcome digests.
  FleetScenarioOptions single = options;
  single.threads = 1;
  const fleet::FleetResult reference = RunFleetScenario(single);
  const fleet::FleetResult result = RunFleetScenario(options);
  const bool deterministic =
      reference.fleet_digest == result.fleet_digest &&
      reference.vm_digests == result.vm_digests &&
      reference.telemetry.telemetry_digest ==
          result.telemetry.telemetry_digest &&
      reference.telemetry.flight_digest == result.telemetry.flight_digest;
  std::printf("determinism: 1 thread vs %u threads -> %s "
              "(digest %016llx, telemetry %016llx)\n\n",
              threads, deterministic ? "IDENTICAL" : "DIVERGED",
              static_cast<unsigned long long>(result.fleet_digest),
              static_cast<unsigned long long>(
                  result.telemetry.telemetry_digest));
  if (result.telemetry.enabled) {
    std::printf("telemetry: %llu epochs, %llu alerts, %llu flight dumps\n\n",
                static_cast<unsigned long long>(result.telemetry.epochs),
                static_cast<unsigned long long>(result.telemetry.alerts),
                static_cast<unsigned long long>(
                    result.telemetry.flight_dumps));
  }
  if (huge) {
    const hv::HugeReclaimStats& hr = result.huge_reclaim;
    std::printf("huge reclaim (fleet): untouched %llu, 2m %llu, 4k %llu "
                "-> share %.3f\n\n",
                static_cast<unsigned long long>(hr.untouched),
                static_cast<unsigned long long>(hr.via_2m),
                static_cast<unsigned long long>(hr.via_4k), hr.Share());
  }

  // Policy comparison on identical traffic.
  std::printf("  %-20s %8s %10s %10s %8s %8s %8s %12s\n", "policy",
              "resizes", "p50[ms]", "p99[ms]", "granted", "clipped",
              "rejected", "t2r[ms]");
  for (const char* name :
       {"proportional-share", "pressure-pid", "market"}) {
    FleetScenarioOptions po = options;
    po.policy = name;
    const fleet::FleetResult pr =
        std::string(name) == policy ? result : RunFleetScenario(po);
    std::printf("  %-20s %8llu %10.2f %10.2f %8llu %8llu %8llu %12.0f%s\n",
                name, static_cast<unsigned long long>(pr.slo.resizes),
                pr.slo.p50_resize_ms, pr.slo.p99_resize_ms,
                static_cast<unsigned long long>(pr.admission.granted),
                static_cast<unsigned long long>(pr.admission.clipped),
                static_cast<unsigned long long>(pr.admission.rejected),
                pr.slo.time_to_reclaim_ms,
                pr.slo.spike_satisfied ? "" : " (unsatisfied)");
    std::fflush(stdout);
  }
  std::printf("\n");

  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"hyperalloc-bench-fleet-v1\",\n"
                    "  \"fleet\": %s\n}\n",
                 FleetJson(options, result, deterministic, 4,
                           /*wall_ms=*/true)
                     .c_str());
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
  }
  if (!telemetry_out.empty()) {
    telemetry::WriteTelemetryArtifacts(telemetry_out, result.telemetry,
                                       options.telemetry.shards);
    std::printf("wrote %s.{fleet.csv,vms.csv,prom,perfetto.json} "
                "+ %llu flight dump(s)\n",
                telemetry_out.c_str(),
                static_cast<unsigned long long>(
                    result.telemetry.flight_dumps));
  }
  return deterministic ? 0 : 1;
}

}  // namespace
}  // namespace hyperalloc::bench

int main(int argc, char** argv) {
  hyperalloc::bench::TraceOutput trace_out(argc, argv);
  return hyperalloc::bench::Main(argc, argv);
}

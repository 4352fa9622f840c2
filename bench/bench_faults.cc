// Degraded-mode reclaim: how fast each candidate shrinks a VM while the
// de/inflation boundaries are failing underneath it (DESIGN.md §4.9,
// EXPERIMENTS.md "Degraded-mode reclaim").
//
// For each candidate the harness sweeps a per-operation transient fault
// rate over the recoverable sites (install hypercall, EPT unmap, IOMMU
// unpin, balloon virtqueue, virtio-mem plug/unplug) and measures reclaim
// throughput in virtual GiB/s, plus the recovery work it took (faults
// observed, retries, rollbacks) and how far the request got. Everything
// is deterministic for a fixed --fault-seed: the same seed reproduces the
// exact failure schedule (README "Fault injection").
//
//   --fault-seed=N    seed for the failure schedule (default 42)
//   --fault-plan=SPEC extra run with an explicit plan (grammar in
//                     src/fault/fault.h), alongside the rate-0 baseline
//   --smoke           small VM for CI (seconds, not minutes)
//   --out=PATH        JSON output (default BENCH_FAULTS.json), schema
//                     hyperalloc-bench-faults-v1
//
// Exits 1, naming each failed check, unless every candidate's rate-0
// run sees no fault, injects none, completes and reclaims; exits 2 on a
// bad flag.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/fleet_bench.h"
#include "bench/trace_io.h"
#include "src/base/units.h"
#include "src/fault/fault.h"
#include "src/workloads/memory_pool.h"

namespace hyperalloc::bench {
namespace {

// The default sweep injects only at boundaries the recovery layer owns
// end to end. kEptMap and kHostReserve are deliberately excluded: they
// also fire during the prepare phase (workload page faults populating
// guest memory), which would measure the workload's degradation rather
// than the reclaim path's.
constexpr fault::Site kSweepSites[] = {
    fault::Site::kInstallHypercall, fault::Site::kEptUnmap,
    fault::Site::kIommuUnpin,       fault::Site::kBalloonHypercall,
    fault::Site::kVmemPlug,         fault::Site::kVmemUnplug,
};

constexpr double kRates[] = {0.0, 0.001, 0.01, 0.05};
static_assert(kRates[0] == 0.0, "the first sweep point is the rate-0 anchor");

fault::Plan SweepPlan(uint64_t seed, double rate) {
  fault::Plan plan;
  plan.seed = seed;
  for (const fault::Site site : kSweepSites) {
    plan.spec(site).probability = rate;
    plan.spec(site).kind = fault::Kind::kTransient;
  }
  return plan;
}

struct SweepPoint {
  double rate = 0.0;  // -1 for an explicit --fault-plan run
  std::string plan;   // textual plan (seed + active sites)
  double reclaim_gibps = 0.0;
  double virtual_ms = 0.0;
  uint64_t start_bytes = 0;
  uint64_t target_bytes = 0;
  uint64_t achieved_bytes = 0;
  bool complete = false;
  bool timed_out = false;
  bool quarantined = false;
  uint64_t faults = 0;
  uint64_t retries = 0;
  uint64_t rollbacks = 0;
  uint64_t injected_total = 0;
};

// The reclaim probe inside the (single-VM) fleet: prepare the guest so
// the shrink has real work to do, then issue one 2 GiB shrink request
// and stop when it settles. Fault composition is unchanged from the
// MakeSetup path — the fleet VM factory arms the same per-VM injector,
// and the engine arms the host pool's kHostReserve site with it.
class ReclaimProbe : public fleet::VmAgent {
 public:
  void Start(fleet::VmContext* context) override {
    context_ = context;
    // Prepare: back most of guest memory with host frames, then free it
    // so the shrink below has real reclaim work to do (same shape as E1).
    workloads::MemoryPool pool(context->vm);
    const uint64_t memory = context->vm->config().memory_bytes;
    const uint64_t region =
        pool.AllocRegion(memory - kGiB, /*thp_fraction=*/0.95, 0);
    pool.FreeRegion(region, 0);
    context->vm->PurgeAllocatorCaches();

    start_bytes_ = context->deflator->limit_bytes();
    issued_ = context->sim->now();
    context->deflator->Request({.target_bytes = 2 * kGiB, .done = [this] {
                                  elapsed_ = context_->sim->now() - issued_;
                                  done_ = true;
                                }});
  }

  bool finished() const override { return done_; }
  uint64_t demand_bytes() const override { return 0; }

  uint64_t start_bytes() const { return start_bytes_; }
  sim::Time elapsed() const { return elapsed_; }

 private:
  fleet::VmContext* context_ = nullptr;
  uint64_t start_bytes_ = 0;
  sim::Time issued_ = 0;
  sim::Time elapsed_ = 0;
  bool done_ = false;
};

SweepPoint RunOne(Candidate candidate, const fault::Plan& plan, double rate,
                  bool smoke) {
  SetupOptions options;
  options.memory_bytes = smoke ? 4 * kGiB : 20 * kGiB;
  options.fault_plan = plan;

  fleet::FleetConfig config;
  config.vms = 1;
  config.threads = 1;
  config.vm_bytes = options.memory_bytes;
  config.host_bytes = smoke ? 16 * kGiB : 64 * kGiB;
  config.run_to_completion = true;
  config.record_series = false;
  config.arm_host_faults = true;

  ReclaimProbe* probe = nullptr;
  fleet::FleetEngine engine(
      config, MakeFleetVmFactory(candidate, options),
      [&probe](uint64_t) {
        auto agent = std::make_unique<ReclaimProbe>();
        probe = agent.get();
        return agent;
      },
      /*policy=*/nullptr);
  engine.Run();

  const sim::Time elapsed = probe->elapsed();
  const uint64_t before = probe->start_bytes();
  const hv::ResizeOutcome& outcome = engine.deflator(0)->last_outcome();

  SweepPoint point;
  point.rate = rate;
  point.plan = plan.enabled() ? plan.ToString() : "";
  point.virtual_ms = static_cast<double>(elapsed) / 1e6;
  point.start_bytes = before;
  point.target_bytes = outcome.target_bytes;
  point.achieved_bytes = outcome.achieved_bytes;
  point.complete = outcome.complete;
  point.timed_out = outcome.timed_out;
  point.quarantined = outcome.quarantined;
  point.faults = outcome.faults;
  point.retries = outcome.retries;
  point.rollbacks = outcome.rollbacks;
  point.injected_total = engine.injector(0) != nullptr
                             ? engine.injector(0)->injected_total()
                             : 0;
  const uint64_t reclaimed =
      before > outcome.achieved_bytes ? before - outcome.achieved_bytes : 0;
  if (elapsed > 0) {
    point.reclaim_gibps = static_cast<double>(reclaimed) /
                          static_cast<double>(kGiB) /
                          (static_cast<double>(elapsed) / 1e9);
  }
  return point;
}

std::string JsonBool(bool value) { return value ? "true" : "false"; }

std::string JsonDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

void AppendPoint(std::string* json, const SweepPoint& point, bool last) {
  *json += "        {\"rate\": " + JsonDouble(point.rate);
  *json += ", \"plan\": \"" + point.plan + "\"";
  *json += ", \"reclaim_gibps\": " + JsonDouble(point.reclaim_gibps);
  *json += ", \"virtual_ms\": " + JsonDouble(point.virtual_ms);
  *json += ", \"start_bytes\": " + std::to_string(point.start_bytes);
  *json += ", \"target_bytes\": " + std::to_string(point.target_bytes);
  *json += ", \"achieved_bytes\": " + std::to_string(point.achieved_bytes);
  *json += ", \"complete\": " + JsonBool(point.complete);
  *json += ", \"timed_out\": " + JsonBool(point.timed_out);
  *json += ", \"quarantined\": " + JsonBool(point.quarantined);
  *json += ", \"faults\": " + std::to_string(point.faults);
  *json += ", \"retries\": " + std::to_string(point.retries);
  *json += ", \"rollbacks\": " + std::to_string(point.rollbacks);
  *json += ", \"injected_total\": " + std::to_string(point.injected_total);
  *json += last ? "}\n" : "},\n";
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_faults [--fault-seed=N] [--fault-plan=SPEC] "
               "[--smoke] [--out=PATH] "
               "[--trace-out=PATH | --trace-out PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  uint64_t seed = 42;
  bool smoke = false;
  std::string out = "BENCH_FAULTS.json";
  std::string plan_spec;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fault-seed=", 13) == 0) {
      if (!ParseUint64(argv[i] + 13, 0, &seed)) {
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--fault-plan=", 13) == 0) {
      plan_spec = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      ++i;  // the path; TraceOutput reads both forms
    } else if (std::strncmp(argv[i], "--trace-out=", 12) != 0) {
      return Usage();
    }
  }

  fault::Plan custom;
  custom.seed = seed;
  if (!plan_spec.empty()) {
    std::string error;
    if (!fault::Plan::Parse(plan_spec, &custom, &error)) {
      std::fprintf(stderr, "bench_faults: bad --fault-plan: %s\n",
                   error.c_str());
      return 2;
    }
  }

  const std::vector<Candidate> candidates = {
      Candidate::kBalloon, Candidate::kVmem, Candidate::kHyperAlloc,
      Candidate::kHyperAllocVfio};

  std::printf("Degraded-mode reclaim (seed %" PRIu64 "%s)\n\n", seed,
              smoke ? ", smoke" : "");
  std::printf("%-22s %8s %14s %10s %8s %8s %6s\n", "candidate", "rate",
              "reclaim GiB/s", "achieved%", "faults", "retries", "state");

  Gate gate;
  std::string json = "{\n";
  json += "  \"schema\": \"hyperalloc-bench-faults-v1\",\n";
  json += "  \"pr\": \"5\",\n";
  json += "  \"smoke\": " + JsonBool(smoke) + ",\n";
  json += "  \"seed\": " + std::to_string(seed) + ",\n";
  json += "  \"candidates\": [\n";

  for (size_t c = 0; c < candidates.size(); ++c) {
    const Candidate candidate = candidates[c];
    std::vector<SweepPoint> points;
    for (const double rate : kRates) {
      points.push_back(
          RunOne(candidate, SweepPlan(seed, rate), rate, smoke));
    }
    const SweepPoint& clean = points.front();
    const std::string name = Name(candidate);
    gate.Check(clean.faults == 0 && clean.injected_total == 0,
               name + " rate-0 run observed faults");
    gate.Check(clean.complete,
               name + " rate-0 run did not complete its reclaim");
    gate.Check(clean.reclaim_gibps > 0.0,
               name + " rate-0 run reclaimed nothing");
    if (!plan_spec.empty()) {
      points.push_back(RunOne(candidate, custom, -1.0, smoke));
    }

    for (const SweepPoint& point : points) {
      // Fraction of the *requested* shrink that actually happened.
      const uint64_t asked = point.start_bytes > point.target_bytes
                                 ? point.start_bytes - point.target_bytes
                                 : 0;
      const uint64_t got = point.start_bytes > point.achieved_bytes
                               ? point.start_bytes - point.achieved_bytes
                               : 0;
      const double achieved_pct =
          asked > 0 ? 100.0 * static_cast<double>(got) /
                          static_cast<double>(asked)
                    : 100.0;
      const char* state = point.quarantined  ? "quar"
                          : point.timed_out  ? "tmo"
                          : point.complete   ? "ok"
                                             : "part";
      std::printf("%-22s %8.4f %14.2f %9.1f%% %8" PRIu64 " %8" PRIu64
                  " %6s\n",
                  Name(candidate), point.rate, point.reclaim_gibps,
                  achieved_pct, point.faults, point.retries, state);
    }
    std::printf("\n");

    json += "    {\"name\": \"" + std::string(Name(candidate)) +
            "\", \"sweep\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      AppendPoint(&json, points[i], i + 1 == points.size());
    }
    json += c + 1 == candidates.size() ? "    ]}\n" : "    ]},\n";
  }
  json += "  ]\n}\n";

  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  std::fprintf(stderr, "wrote %s\n", out.c_str());
  return gate.Finish();
}

}  // namespace
}  // namespace hyperalloc::bench

int main(int argc, char** argv) {
  hyperalloc::bench::TraceOutput trace_out(argc, argv);
  return hyperalloc::bench::Main(argc, argv);
}

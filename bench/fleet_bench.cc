#include "bench/fleet_bench.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "src/base/check.h"

namespace hyperalloc::bench {
namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string Num(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

}  // namespace

void Gate::Check(bool ok, std::string_view name) {
  if (!ok) {
    failed_ += failed_.empty() ? "" : "; ";
    failed_ += name;
  }
}

int Gate::Finish() const {
  if (failed_.empty()) {
    return 0;
  }
  std::fprintf(stderr, "FAILED: %s\n", failed_.c_str());
  return 1;
}

bool ParseThreads(std::string_view value, unsigned* threads) {
  const char* end = value.data() + value.size();
  const auto [parsed, error] = std::from_chars(value.data(), end, *threads);
  return error == std::errc() && parsed == end && *threads >= 1;
}

bool ParseUint64(const char* text, int base, uint64_t* value) {
  // strtoull skips spaces and takes a sign; a flag's number has neither.
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *value = std::strtoull(text, &end, base);
  return *end == '\0' && errno == 0;
}

fleet::FleetResult RunCompileFleet(const CompileFleetOptions& options) {
  HA_CHECK(options.vms > 0);
  fleet::FleetConfig config;
  config.vms = options.vms;
  config.threads = options.threads;
  config.vm_bytes = options.vm_bytes;
  config.host_slack_bytes = options.host_slack_bytes;
  config.sample_period = options.sample_period;
  config.run_to_completion = true;

  SetupOptions vm_options;
  vm_options.memory_bytes = options.vm_bytes;
  vm_options.balloon.reporting_order = kHugeOrder;  // kernel default o=9

  fleet::CompileAgentConfig agent;
  agent.compile = options.compile;
  agent.builds_per_vm = options.builds_per_vm;
  agent.gap = options.gap;
  agent.offset = options.offset;
  agent.offset_step = options.offset_step;

  fleet::FleetEngine engine(
      config, MakeFleetVmFactory(options.candidate, vm_options),
      [agent](uint64_t) { return std::make_unique<fleet::CompileAgent>(agent); },
      /*policy=*/nullptr);
  return engine.Run();
}

void WriteFleetCsvs(const fleet::FleetResult& result, const std::string& tag) {
  for (size_t i = 0; i < result.per_vm_rss.size(); ++i) {
    result.per_vm_rss[i].WriteCsv(std::string("bench_out/multivm_") + tag +
                                      "_vm" + std::to_string(i) + ".csv",
                                  "vm_rss_gib");
  }
  result.merged.WriteCsv(std::string("bench_out/multivm_") + tag + ".csv",
                         "host_used_gib");
}

std::unique_ptr<fleet::ResizePolicy> MakePolicyByName(
    const std::string& name, const fleet::PolicyConfig& config) {
  if (name == "proportional-share") {
    return fleet::MakeProportionalShare(config);
  }
  if (name == "pressure-pid") {
    return fleet::MakePressurePid(config);
  }
  if (name == "market") {
    return fleet::MakeMarketPolicy(config);
  }
  if (name == "none") {
    return nullptr;
  }
  std::fprintf(stderr, "unknown policy '%s' (want proportional-share, "
                       "pressure-pid, market, or none)\n",
               name.c_str());
  HA_CHECK(false);
  return nullptr;
}

const char* ArrivalKindName(fleet::ArrivalKind kind) {
  switch (kind) {
    case fleet::ArrivalKind::kStepResize:
      return "step-resize";
    case fleet::ArrivalKind::kBursty:
      return "bursty";
    case fleet::ArrivalKind::kDiurnal:
      return "diurnal";
    case fleet::ArrivalKind::kHeavyTailed:
      return "heavy-tailed";
  }
  return "?";
}

fleet::FleetResult RunFleetScenario(const FleetScenarioOptions& options) {
  HA_CHECK(options.vms > 0);
  HA_CHECK(options.overcommit > 0.0);
  fleet::FleetConfig config;
  config.vms = options.vms;
  config.threads = options.threads;
  config.vm_bytes = options.vm_bytes;
  config.host_bytes =
      options.host_bytes != 0
          ? options.host_bytes
          : static_cast<uint64_t>(
                static_cast<double>(options.vms * options.vm_bytes) /
                options.overcommit);
  config.horizon = options.horizon;
  config.epoch = options.epoch;
  config.record_series = options.record_series;
  // Start every VM at the policy floor (+headroom) so the admission
  // ledger is feasible from the first barrier.
  config.initial_limit_bytes =
      options.policy_config.min_limit_bytes +
      options.policy_config.headroom_bytes;
  config.spike = options.spike;
  config.spike.vms = std::min<uint64_t>(config.spike.vms, options.vms);
  config.telemetry = options.telemetry;

  fleet::ArrivalConfig arrival = options.arrival;
  arrival.horizon = options.horizon;
  arrival.seed = options.seed;
  arrival.peak_bytes = std::min(arrival.peak_bytes, options.vm_bytes);
  std::shared_ptr<fleet::ArrivalProcess> process =
      fleet::MakeArrivalProcess(arrival);

  SetupOptions vm_options;
  vm_options.memory_bytes = options.vm_bytes;
  vm_options.balloon.reporting_order = kHugeOrder;
  vm_options.fault_plan = options.fault_plan;

  const bool huge = options.huge;
  fleet::FleetEngine engine(
      config, MakeFleetVmFactory(options.candidate, vm_options),
      [process, huge](uint64_t index) {
        fleet::DemandAgentConfig agent;
        agent.trace = process->Generate(index);
        if (huge) {
          // §4.14 fast-path mode: all demand is THP-backed, so every
          // populated huge frame maps as one 2 MiB EPT entry and the
          // reclaim path exercises the single-flush accounting.
          agent.thp_fraction = 1.0;
        }
        return std::make_unique<fleet::DemandAgent>(agent);
      },
      MakePolicyByName(options.policy, options.policy_config));
  return engine.Run();
}

std::string FleetJson(const FleetScenarioOptions& options,
                      const fleet::FleetResult& result, bool deterministic,
                      int indent, bool wall_ms) {
  const std::string in(static_cast<size_t>(indent), ' ');
  const std::string out(indent >= 2 ? static_cast<size_t>(indent - 2) : 0,
                        ' ');
  const uint64_t host_bytes =
      options.host_bytes != 0
          ? options.host_bytes
          : static_cast<uint64_t>(
                static_cast<double>(options.vms * options.vm_bytes) /
                options.overcommit);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "0x%016" PRIx64, result.fleet_digest);

  std::string json = "{\n";
  json += in + "\"vms\": " + Num(options.vms) + ",\n";
  json += in + "\"threads\": " +
          Num(static_cast<uint64_t>(options.threads)) + ",\n";
  json += in + "\"policy\": \"" + options.policy + "\",\n";
  json += in + "\"arrival\": \"" + ArrivalKindName(options.arrival.kind) +
          "\",\n";
  json += in + "\"candidate\": \"" + Name(options.candidate) + "\",\n";
  // Readers relax the spike SLO for fault-injected runs, as CheckFleet
  // does (a quarantined VM legitimately never satisfies the spike).
  json += in + "\"fault_plan\": \"" +
          (options.fault_plan.enabled() ? options.fault_plan.ToString()
                                        : std::string()) +
          "\",\n";
  json += in + "\"vm_mib\": " + Num(options.vm_bytes / kMiB) + ",\n";
  json += in + "\"host_gib\": " +
          Num(static_cast<double>(host_bytes) / static_cast<double>(kGiB)) +
          ",\n";
  json += in + "\"horizon_s\": " +
          Num(static_cast<uint64_t>(options.horizon / sim::kSec)) + ",\n";
  json += in + "\"epoch_s\": " +
          Num(static_cast<uint64_t>(options.epoch / sim::kSec)) + ",\n";
  json += in + "\"deterministic\": " +
          std::string(deterministic ? "true" : "false") + ",\n";
  json += in + "\"fleet_digest\": \"" + digest + "\",\n";
  json += in + "\"resizes\": " + Num(result.slo.resizes) + ",\n";
  json += in + "\"p50_resize_ms\": " + Num(result.slo.p50_resize_ms) + ",\n";
  json += in + "\"p99_resize_ms\": " + Num(result.slo.p99_resize_ms) + ",\n";
  json += in + "\"admission\": {\"granted\": " +
          Num(result.admission.granted) +
          ", \"clipped\": " + Num(result.admission.clipped) +
          ", \"rejected\": " + Num(result.admission.rejected) + "},\n";
  json += in + "\"spike\": {\"vms\": " +
          Num(std::min<uint64_t>(options.spike.vms, options.vms)) +
          ", \"mib\": " + Num(options.spike.bytes / kMiB) +
          ", \"applied\": " +
          std::string(result.slo.spike_applied ? "true" : "false") +
          ", \"satisfied\": " +
          std::string(result.slo.spike_satisfied ? "true" : "false") +
          ", \"time_to_reclaim_ms\": " + Num(result.slo.time_to_reclaim_ms) +
          "},\n";
  json += in + "\"footprint_gib_min\": " + Num(result.footprint_gib_min) +
          ",\n";
  json += in + "\"peak_gib\": " + Num(result.peak_gib) + ",\n";
  json += in + "\"pool_peak_gib\": " +
          Num(static_cast<double>(result.pool_peak_frames) *
              static_cast<double>(kFrameSize) / static_cast<double>(kGiB)) +
          ",\n";
  const telemetry::TelemetryResult& tel = result.telemetry;
  char tel_digest[32];
  std::snprintf(tel_digest, sizeof(tel_digest), "0x%016" PRIx64,
                tel.telemetry_digest);
  char fl_digest[32];
  std::snprintf(fl_digest, sizeof(fl_digest), "0x%016" PRIx64,
                tel.flight_digest);
  json += in + "\"telemetry\": {\"enabled\": " +
          std::string(tel.enabled ? "true" : "false") +
          ", \"epochs\": " + Num(tel.epochs) +
          ", \"alerts\": " + Num(tel.alerts) +
          ", \"flight_dumps\": " + Num(tel.flight_dumps) +
          ", \"telemetry_digest\": \"" + tel_digest +
          "\", \"flight_digest\": \"" + fl_digest + "\"},\n";
  // Fleet-wide huge-frame reclaim split (§4.14); the share is 1.0 when
  // the backend reclaimed nothing (or has no huge-granular path).
  const hv::HugeReclaimStats& hr = result.huge_reclaim;
  json += in + "\"huge\": {\"mode\": " +
          std::string(options.huge ? "true" : "false") +
          ", \"reclaim_untouched\": " + Num(hr.untouched) +
          ", \"reclaim_2m\": " + Num(hr.via_2m) +
          ", \"reclaim_4k\": " + Num(hr.via_4k) +
          ", \"share\": " + Num(hr.Share()) + "}";
  if (wall_ms) {
    json += ",\n" + in + "\"wall_ms\": " + Num(result.wall_ms);
  }
  json += "\n" + out + "}";
  return json;
}

void CheckFleet(const FleetScenarioOptions& options,
                const fleet::FleetResult& result, bool deterministic,
                Gate* gate) {
  gate->Check(deterministic, "fleet non-deterministic");
  gate->Check(result.slo.resizes > 0, "fleet policy issued no resizes");
  gate->Check(result.admission.granted > 0,
              "fleet admission granted nothing");
  const bool spiked = options.spike.vms > 0 && result.slo.spike_applied;
  gate->Check(!spiked || options.fault_plan.enabled() ||
                  result.slo.spike_satisfied,
              "fleet pressure spike never satisfied");
  gate->Check(!spiked || result.slo.time_to_reclaim_ms >= 0.0,
              "fleet time-to-reclaim negative");
  const telemetry::TelemetryResult& tel = result.telemetry;
  gate->Check(!tel.enabled || tel.epochs > 0,
              "telemetry enabled but sampled no epochs");
  gate->Check(tel.enabled || tel.telemetry_digest == 0,
              "telemetry disabled but digest nonzero");
}

}  // namespace hyperalloc::bench

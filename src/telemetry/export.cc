#include "src/telemetry/export.h"

#include <cinttypes>
#include <cstdio>

#include "src/base/check.h"
#include "src/base/types.h"

namespace hyperalloc::telemetry {

namespace {

double Gib(uint64_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(kGiB);
}

double Mib(uint64_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(kMiB);
}

double Seconds(sim::Time t) {
  return static_cast<double>(t) / static_cast<double>(sim::kSec);
}

std::FILE* OpenOrDie(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  HA_CHECK(file != nullptr);
  return file;
}

}  // namespace

void WriteFleetCsv(const std::string& path, const TelemetryResult& result) {
  std::FILE* file = OpenOrDie(path);
  std::fprintf(file,
               "time_s,epoch,pressure,committed_gib,limit_gib,wss_gib,"
               "rss_gib,busy_vms,quarantined_vms,granted,clipped,rejected,"
               "rejected_delta,faults,retries,rollbacks,latency_burn_fast,"
               "latency_burn_slow,pressure_burn_fast,pressure_burn_slow,"
               "alerts\n");
  for (const EpochSummary& e : result.fleet) {
    std::fprintf(file,
                 "%.3f,%" PRIu64 ",%.6f,%.6f,%.6f,%.6f,%.6f,%" PRIu64
                 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                 ",%.6f,%.6f,%.6f,%.6f,%" PRIu64 "\n",
                 Seconds(e.at), e.epoch, e.pressure, Gib(e.committed_bytes),
                 Gib(e.limit_bytes), Gib(e.wss_bytes), Gib(e.rss_bytes),
                 e.busy_vms, e.quarantined_vms, e.granted, e.clipped,
                 e.rejected, e.rejected_delta, e.faults, e.retries,
                 e.rollbacks, e.latency_burn_fast, e.latency_burn_slow,
                 e.pressure_burn_fast, e.pressure_burn_slow, e.alerts);
  }
  std::fclose(file);
}

void WriteVmsCsv(const std::string& path, const TelemetryResult& result) {
  std::FILE* file = OpenOrDie(path);
  std::fprintf(file,
               "vm,limit_mib,wss_mib,peak_wss_mib,peak_pressure,"
               "resizes,faults,retries,rollbacks,quarantined_frames,"
               "quarantined\n");
  for (const VmGauges& g : result.vm_last) {
    const VmPeaks peaks = g.vm < result.vm_peaks.size()
                              ? result.vm_peaks[g.vm]
                              : VmPeaks{};
    std::fprintf(file,
                 "%" PRIu64 ",%.3f,%.3f,%.3f,%.6f,%" PRIu64 ",%" PRIu64
                 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%u\n",
                 g.vm, Mib(g.limit_bytes),
                 Mib(g.wss_bytes), Mib(peaks.peak_wss_bytes),
                 peaks.peak_pressure, g.resizes, g.faults, g.retries,
                 g.rollbacks, g.quarantined_frames, g.quarantined ? 1 : 0);
  }
  std::fclose(file);
}

void WriteFleetPrometheus(const std::string& path,
                          const TelemetryResult& result) {
  std::FILE* file = OpenOrDie(path);
  const EpochSummary last =
      result.fleet.empty() ? EpochSummary{} : result.fleet.back();
  const struct {
    const char* name;
    const char* type;
    double value;
  } fleet_rows[] = {
      {"hyperalloc_fleet_pressure", "gauge", last.pressure},
      {"hyperalloc_fleet_committed_gib", "gauge", Gib(last.committed_bytes)},
      {"hyperalloc_fleet_limit_gib", "gauge", Gib(last.limit_bytes)},
      {"hyperalloc_fleet_wss_gib", "gauge", Gib(last.wss_bytes)},
      {"hyperalloc_fleet_busy_vms", "gauge",
       static_cast<double>(last.busy_vms)},
      {"hyperalloc_fleet_quarantined_vms", "gauge",
       static_cast<double>(last.quarantined_vms)},
      {"hyperalloc_fleet_admission_granted", "counter",
       static_cast<double>(last.granted)},
      {"hyperalloc_fleet_admission_clipped", "counter",
       static_cast<double>(last.clipped)},
      {"hyperalloc_fleet_admission_rejected", "counter",
       static_cast<double>(last.rejected)},
      {"hyperalloc_fleet_latency_burn_fast", "gauge", last.latency_burn_fast},
      {"hyperalloc_fleet_latency_burn_slow", "gauge", last.latency_burn_slow},
      {"hyperalloc_fleet_pressure_burn_fast", "gauge",
       last.pressure_burn_fast},
      {"hyperalloc_fleet_pressure_burn_slow", "gauge",
       last.pressure_burn_slow},
      {"hyperalloc_fleet_alerts", "counter", static_cast<double>(last.alerts)},
      {"hyperalloc_fleet_flight_dumps", "counter",
       static_cast<double>(result.flight_dumps)},
  };
  for (const auto& row : fleet_rows) {
    std::fprintf(file, "# TYPE %s %s\n%s %.6f\n", row.name, row.type,
                 row.name, row.value);
  }
  if (result.vm_last.size() <= kPrometheusVmLimit) {
    std::fprintf(file, "# TYPE hyperalloc_vm_limit_mib gauge\n");
    for (const VmGauges& g : result.vm_last) {
      std::fprintf(file,
                   "hyperalloc_vm_limit_mib{vm=\"%" PRIu64 "\"} %.3f\n",
                   g.vm, Mib(g.limit_bytes));
    }
    std::fprintf(file, "# TYPE hyperalloc_vm_wss_mib gauge\n");
    for (const VmGauges& g : result.vm_last) {
      std::fprintf(file,
                   "hyperalloc_vm_wss_mib{vm=\"%" PRIu64 "\"} %.3f\n",
                   g.vm, Mib(g.wss_bytes));
    }
  }
  std::fclose(file);
}

void WriteFleetPerfetto(const std::string& path,
                        const TelemetryResult& result) {
  const std::string json = FleetPerfettoJson(result.fleet, result.alert_events);
  std::FILE* file = OpenOrDie(path);
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
}

uint64_t WriteFlightDumps(const std::string& prefix,
                          const TelemetryResult& result) {
  uint64_t written = 0;
  for (size_t i = 0; i < result.dumps.size(); ++i) {
    const FlightDump& dump = result.dumps[i];
    char suffix[64];
    std::snprintf(suffix, sizeof(suffix), ".flight%zu.json", i);
    std::FILE* file = OpenOrDie(prefix + suffix);
    std::fwrite(dump.json.data(), 1, dump.json.size(), file);
    std::fclose(file);
    std::snprintf(suffix, sizeof(suffix), ".flight%zu.perfetto.json", i);
    file = OpenOrDie(prefix + suffix);
    std::fwrite(dump.perfetto.data(), 1, dump.perfetto.size(), file);
    std::fclose(file);
    ++written;
  }
  return written;
}

void WriteTelemetryArtifacts(const std::string& prefix,
                             const TelemetryResult& result) {
  WriteFleetCsv(prefix + ".fleet.csv", result);
  WriteVmsCsv(prefix + ".vms.csv", result);
  WriteFleetPrometheus(prefix + ".prom", result);
  WriteFleetPerfetto(prefix + ".perfetto.json", result);
  WriteFlightDumps(prefix, result);
}

}  // namespace hyperalloc::telemetry

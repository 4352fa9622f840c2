// Exporters over a finished TelemetryResult: fleet/VM CSV for
// ha_fleet_top and plot_csv.py --fleet, fleet-labeled Prometheus
// exposition, Perfetto counter tracks for whole-run timelines, and the
// flight-recorder postmortem bundles. Always compiled — TelemetryResult
// is plain data; under -DHYPERALLOC_TRACE=0 the pipeline simply never
// fills it and the writers emit headers only.
#pragma once

#include <string>

#include "src/telemetry/telemetry.h"

namespace hyperalloc::telemetry {

// Per-epoch fleet rows:
// "time_s,epoch,pressure,committed_gib,limit_gib,wss_gib,rss_gib,
//  busy_vms,quarantined_vms,granted,clipped,rejected,rejected_delta,
//  faults,retries,rollbacks,latency_burn_fast,latency_burn_slow,
//  pressure_burn_fast,pressure_burn_slow,alerts" (the format
// tools/ha_fleet_top and scripts/plot_csv.py --fleet read).
void WriteFleetCsv(const std::string& path, const TelemetryResult& result);

// Final per-VM gauge rows plus run peaks:
// "vm,limit_mib,wss_mib,peak_wss_mib,peak_pressure,resizes,faults,
//  retries,rollbacks,quarantined_frames,quarantined".
void WriteVmsCsv(const std::string& path, const TelemetryResult& result);

// Prometheus text exposition of the final-epoch fleet state: fleet-level
// gauges plus per-VM series labeled {vm="N"} (per-VM only when the fleet
// is small enough to keep cardinality sane — see kPrometheusVmLimit).
inline constexpr uint64_t kPrometheusVmLimit = 256;
void WriteFleetPrometheus(const std::string& path,
                          const TelemetryResult& result);

// FleetPerfettoJson over the whole run: the fleet counter tracks of
// every epoch plus the alert markers.
void WriteFleetPerfetto(const std::string& path,
                        const TelemetryResult& result);

// Writes each retained flight dump as `prefix.flight<i>.json` (the
// hyperalloc-flight-v2 document) and `prefix.flight<i>.perfetto.json`.
// Returns the number of dumps written.
uint64_t WriteFlightDumps(const std::string& prefix,
                          const TelemetryResult& result);

// Convenience: the whole artifact set under one prefix —
// `prefix.fleet.csv`, `prefix.vms.csv`, `prefix.prom`,
// `prefix.perfetto.json`, plus the flight dumps.
void WriteTelemetryArtifacts(const std::string& prefix,
                             const TelemetryResult& result);

}  // namespace hyperalloc::telemetry

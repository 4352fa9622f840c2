// ha_fleet_top — offline renderer for the fleet telemetry artifacts
// (the PREFIX.fleet.csv / PREFIX.vms.csv files written by bench_fleet
// --telemetry-out=PREFIX via src/telemetry/export.h).
//
//   ha_fleet_top PREFIX              fleet summary + top-K VM table
//   ha_fleet_top PREFIX PREFIX2...   per-policy comparison (one summary
//                                    row per prefix, e.g. one run per
//                                    resize policy on the same traffic)
//   ha_fleet_top --top=K ...         VM table depth (default 10)
//   ha_fleet_top --report PREFIX     compact machine-greppable report
//                                    for CI; exits 1 on missing or
//                                    empty telemetry
//   ha_fleet_top --self-check        internal consistency checks on
//                                    synthetic data (no input; run by
//                                    scripts/lint.sh)
//
// Everything rendered here is virtual-time data — deterministic across
// runs, machines, and worker-thread counts.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

// One row of PREFIX.fleet.csv (one epoch barrier, fleet-wide).
struct FleetRow {
  double time_s = 0.0;
  uint64_t epoch = 0;
  double pressure = 0.0;
  double committed_gib = 0.0;
  double limit_gib = 0.0;
  double wss_gib = 0.0;
  double rss_gib = 0.0;
  uint64_t busy_vms = 0;
  uint64_t quarantined_vms = 0;
  uint64_t granted = 0;
  uint64_t clipped = 0;
  uint64_t rejected = 0;
  uint64_t rejected_delta = 0;
  uint64_t faults = 0;
  uint64_t retries = 0;
  uint64_t rollbacks = 0;
  double latency_burn_fast = 0.0;
  double latency_burn_slow = 0.0;
  double pressure_burn_fast = 0.0;
  double pressure_burn_slow = 0.0;
  uint64_t alerts = 0;
};

// One row of PREFIX.vms.csv (final gauges + run peaks for one VM).
struct VmRow {
  uint64_t vm = 0;
  double limit_mib = 0.0;
  double wss_mib = 0.0;
  double peak_wss_mib = 0.0;
  double peak_pressure = 0.0;
  uint64_t resizes = 0;
  uint64_t faults = 0;
  uint64_t retries = 0;
  uint64_t rollbacks = 0;
  uint64_t quarantined_frames = 0;
  bool quarantined = false;
};

bool SplitCsv(const std::string& line, std::vector<std::string>* fields) {
  fields->clear();
  std::stringstream stream(line);
  std::string field;
  while (std::getline(stream, field, ',')) {
    fields->push_back(field);
  }
  return !fields->empty();
}

bool ParseFleetRow(const std::string& line, FleetRow* row) {
  std::vector<std::string> f;
  if (!SplitCsv(line, &f) || f.size() != 21) {
    return false;
  }
  try {
    row->time_s = std::stod(f[0]);
    row->epoch = std::stoull(f[1]);
    row->pressure = std::stod(f[2]);
    row->committed_gib = std::stod(f[3]);
    row->limit_gib = std::stod(f[4]);
    row->wss_gib = std::stod(f[5]);
    row->rss_gib = std::stod(f[6]);
    row->busy_vms = std::stoull(f[7]);
    row->quarantined_vms = std::stoull(f[8]);
    row->granted = std::stoull(f[9]);
    row->clipped = std::stoull(f[10]);
    row->rejected = std::stoull(f[11]);
    row->rejected_delta = std::stoull(f[12]);
    row->faults = std::stoull(f[13]);
    row->retries = std::stoull(f[14]);
    row->rollbacks = std::stoull(f[15]);
    row->latency_burn_fast = std::stod(f[16]);
    row->latency_burn_slow = std::stod(f[17]);
    row->pressure_burn_fast = std::stod(f[18]);
    row->pressure_burn_slow = std::stod(f[19]);
    row->alerts = std::stoull(f[20]);
  } catch (...) {
    return false;
  }
  return true;
}

bool ParseVmRow(const std::string& line, VmRow* row) {
  std::vector<std::string> f;
  if (!SplitCsv(line, &f) || f.size() != 11) {
    return false;
  }
  try {
    row->vm = std::stoull(f[0]);
    row->limit_mib = std::stod(f[1]);
    row->wss_mib = std::stod(f[2]);
    row->peak_wss_mib = std::stod(f[3]);
    row->peak_pressure = std::stod(f[4]);
    row->resizes = std::stoull(f[5]);
    row->faults = std::stoull(f[6]);
    row->retries = std::stoull(f[7]);
    row->rollbacks = std::stoull(f[8]);
    row->quarantined_frames = std::stoull(f[9]);
    row->quarantined = f[10] == "1";
  } catch (...) {
    return false;
  }
  return true;
}

template <typename Row, typename Parse>
bool LoadCsv(const std::string& path, Parse parse, std::vector<Row>* rows,
             bool required) {
  std::ifstream file(path);
  if (!file) {
    if (required) {
      std::fprintf(stderr, "ha_fleet_top: cannot open %s\n", path.c_str());
    }
    return false;
  }
  std::string line;
  bool header = true;
  while (std::getline(file, line)) {
    if (header) {
      header = false;
      continue;
    }
    if (line.empty()) {
      continue;
    }
    Row row;
    if (!parse(line, &row)) {
      std::fprintf(stderr, "ha_fleet_top: bad row in %s: %s\n", path.c_str(),
                   line.c_str());
      return false;
    }
    rows->push_back(row);
  }
  return true;
}

// Scalar summary of one run, computed from the epoch series. Counters
// (rejected, faults, alerts) are cumulative in the CSV, so "total" is
// just the last row's value.
struct Summary {
  uint64_t epochs = 0;
  double duration_s = 0.0;
  double peak_pressure = 0.0;
  double mean_pressure = 0.0;
  double peak_latency_burn = 0.0;   // fast window
  double peak_pressure_burn = 0.0;  // fast window
  uint64_t quarantined_vms = 0;     // final
  uint64_t rejected = 0;            // final cumulative
  uint64_t faults = 0;              // final cumulative
  uint64_t alerts = 0;              // final cumulative
};

Summary Summarize(const std::vector<FleetRow>& fleet) {
  Summary s;
  s.epochs = fleet.size();
  double pressure_sum = 0.0;
  for (const FleetRow& row : fleet) {
    s.peak_pressure = std::max(s.peak_pressure, row.pressure);
    s.peak_latency_burn =
        std::max(s.peak_latency_burn, row.latency_burn_fast);
    s.peak_pressure_burn =
        std::max(s.peak_pressure_burn, row.pressure_burn_fast);
    pressure_sum += row.pressure;
  }
  if (!fleet.empty()) {
    s.mean_pressure = pressure_sum / static_cast<double>(fleet.size());
    s.duration_s = fleet.back().time_s;
    s.quarantined_vms = fleet.back().quarantined_vms;
    s.rejected = fleet.back().rejected;
    s.faults = fleet.back().faults;
    s.alerts = fleet.back().alerts;
  }
  return s;
}

// Hottest VMs first: run-peak pressure, then injected-fault count, then
// VM index for a total (deterministic) order.
void SortHottest(std::vector<VmRow>* vms) {
  std::sort(vms->begin(), vms->end(), [](const VmRow& a, const VmRow& b) {
    if (a.peak_pressure != b.peak_pressure) {
      return a.peak_pressure > b.peak_pressure;
    }
    if (a.faults != b.faults) {
      return a.faults > b.faults;
    }
    return a.vm < b.vm;
  });
}

void PrintSummary(const std::string& prefix, const Summary& s) {
  std::printf("%s: %" PRIu64 " epochs over %.1f s\n", prefix.c_str(),
              s.epochs, s.duration_s);
  std::printf("  pressure: peak %.3f, mean %.3f\n", s.peak_pressure,
              s.mean_pressure);
  std::printf("  burn (fast window): latency %.2f, pressure %.2f "
              "(x error budget)\n",
              s.peak_latency_burn, s.peak_pressure_burn);
  std::printf("  alerts %" PRIu64 ", quarantined VMs %" PRIu64
              ", rejected %" PRIu64 ", faults %" PRIu64 "\n\n",
              s.alerts, s.quarantined_vms, s.rejected, s.faults);
}

void PrintTopVms(std::vector<VmRow> vms, size_t top) {
  SortHottest(&vms);
  std::printf("Top %zu VMs by run-peak pressure:\n",
              std::min(top, vms.size()));
  std::printf("  %6s %10s %10s %9s %8s %7s %8s %5s\n", "vm", "limit_mib",
              "peak_wss", "peak_pr", "resizes", "faults", "q_frames", "quar");
  for (size_t i = 0; i < vms.size() && i < top; ++i) {
    const VmRow& v = vms[i];
    std::printf("  %6" PRIu64 " %10.1f %10.1f %9.3f %8" PRIu64 " %7" PRIu64
                " %8" PRIu64 " %5s\n",
                v.vm, v.limit_mib, v.peak_wss_mib, v.peak_pressure,
                v.resizes, v.faults, v.quarantined_frames,
                v.quarantined ? "YES" : "");
  }
  std::printf("\n");
}

int Render(const std::vector<std::string>& prefixes, size_t top,
           bool report) {
  // Multiple prefixes: a comparison table (the per-policy view — one
  // bench_fleet --telemetry-out run per policy on identical traffic).
  if (prefixes.size() > 1 && !report) {
    std::printf("  %-24s %7s %8s %8s %8s %7s %9s %9s\n", "run", "epochs",
                "peak_pr", "mean_pr", "alerts", "quar", "rejected",
                "faults");
    for (const std::string& prefix : prefixes) {
      std::vector<FleetRow> fleet;
      if (!LoadCsv<FleetRow>(prefix + ".fleet.csv", ParseFleetRow, &fleet,
                             /*required=*/true)) {
        return 1;
      }
      const Summary s = Summarize(fleet);
      std::printf("  %-24s %7" PRIu64 " %8.3f %8.3f %8" PRIu64 " %7" PRIu64
                  " %9" PRIu64 " %9" PRIu64 "\n",
                  prefix.c_str(), s.epochs, s.peak_pressure, s.mean_pressure,
                  s.alerts, s.quarantined_vms, s.rejected, s.faults);
    }
    return 0;
  }

  int status = 0;
  for (const std::string& prefix : prefixes) {
    std::vector<FleetRow> fleet;
    std::vector<VmRow> vms;
    if (!LoadCsv<FleetRow>(prefix + ".fleet.csv", ParseFleetRow, &fleet,
                           /*required=*/true) ||
        !LoadCsv<VmRow>(prefix + ".vms.csv", ParseVmRow, &vms,
                        /*required=*/true)) {
      return 1;
    }
    const Summary s = Summarize(fleet);
    if (report) {
      // One greppable line for CI; empty telemetry is a failure (the
      // run was supposed to sample every epoch barrier).
      std::printf("fleet_top: prefix=%s epochs=%" PRIu64 " vms=%zu "
                  "peak_pressure=%.3f alerts=%" PRIu64
                  " quarantined_vms=%" PRIu64 " rejected=%" PRIu64
                  " faults=%" PRIu64 "\n",
                  prefix.c_str(), s.epochs, vms.size(), s.peak_pressure,
                  s.alerts, s.quarantined_vms, s.rejected, s.faults);
      if (s.epochs == 0 || vms.empty()) {
        std::fprintf(stderr, "ha_fleet_top: %s has empty telemetry\n",
                     prefix.c_str());
        status = 1;
      }
      continue;
    }
    PrintSummary(prefix, s);
    PrintTopVms(vms, top);
  }
  return status;
}

#define SELF_CHECK(cond)                                             \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "ha_fleet_top: self-check FAILED: %s\n", \
                   #cond);                                           \
      return 1;                                                      \
    }                                                                \
  } while (0)

int SelfCheck() {
  FleetRow fleet_row;
  SELF_CHECK(ParseFleetRow(
      "5.000,0,0.812500,3.2,4.1,2.9,3.0,128,7,10,2,5,1,42,9,1,"
      "1.25,0.50,8.00,2.00,3",
      &fleet_row));
  SELF_CHECK(fleet_row.epoch == 0 && fleet_row.busy_vms == 128);
  SELF_CHECK(fleet_row.quarantined_vms == 7 && fleet_row.rejected == 5);
  SELF_CHECK(fleet_row.faults == 42 && fleet_row.alerts == 3);
  SELF_CHECK(fleet_row.pressure_burn_fast == 8.0);
  SELF_CHECK(!ParseFleetRow("1,2,3", &fleet_row));

  VmRow vm_row;
  SELF_CHECK(
      ParseVmRow("17,48.000,32.500,60.250,0.950000,12,3,1,0,16,1",
                 &vm_row));
  SELF_CHECK(vm_row.vm == 17 && vm_row.limit_mib == 48.0);
  SELF_CHECK(vm_row.peak_wss_mib == 60.25 && vm_row.quarantined);
  SELF_CHECK(vm_row.quarantined_frames == 16);
  SELF_CHECK(!ParseVmRow("17,48.0", &vm_row));
  // A 12-field row (the old layout with a shard column) is rejected,
  // not misparsed.
  SELF_CHECK(
      !ParseVmRow("17,1,48.000,32.500,60.250,0.950000,12,3,1,0,16,1",
                  &vm_row));

  // Summaries: peaks over the series, totals from the last row.
  std::vector<FleetRow> fleet(3);
  fleet[0].pressure = 0.5;
  fleet[1].pressure = 0.9;
  fleet[1].latency_burn_fast = 4.0;
  fleet[2].pressure = 0.7;
  fleet[2].time_s = 15.0;
  fleet[2].rejected = 11;
  fleet[2].alerts = 2;
  fleet[2].quarantined_vms = 1;
  const Summary s = Summarize(fleet);
  SELF_CHECK(s.epochs == 3 && s.peak_pressure == 0.9);
  SELF_CHECK(s.peak_latency_burn == 4.0 && s.duration_s == 15.0);
  SELF_CHECK(s.rejected == 11 && s.alerts == 2 && s.quarantined_vms == 1);
  SELF_CHECK(s.mean_pressure > 0.69 && s.mean_pressure < 0.71);

  // Hottest-first order: pressure desc, faults desc, vm asc.
  std::vector<VmRow> vms(4);
  vms[0].vm = 0;
  vms[0].peak_pressure = 0.5;
  vms[1].vm = 1;
  vms[1].peak_pressure = 0.9;
  vms[2].vm = 2;
  vms[2].peak_pressure = 0.9;
  vms[2].faults = 5;
  vms[3].vm = 3;
  vms[3].peak_pressure = 0.9;
  vms[3].faults = 5;
  SortHottest(&vms);
  SELF_CHECK(vms[0].vm == 2 && vms[1].vm == 3 && vms[2].vm == 1 &&
             vms[3].vm == 0);

  std::printf("ha_fleet_top: self-check OK\n");
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ha_fleet_top [--top=K] PREFIX [PREFIX...]\n"
               "       ha_fleet_top --report PREFIX [PREFIX...]\n"
               "       ha_fleet_top --self-check\n"
               "PREFIX names telemetry artifacts written by bench_fleet\n"
               "--telemetry-out=PREFIX (PREFIX.fleet.csv, PREFIX.vms.csv)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  size_t top = 10;
  bool report = false;
  std::vector<std::string> prefixes;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-check") == 0) {
      return SelfCheck();
    }
    if (std::strncmp(argv[i], "--top=", 6) == 0) {
      top = static_cast<size_t>(std::atoll(argv[i] + 6));
    } else if (std::strcmp(argv[i], "--report") == 0) {
      report = true;
    } else if (argv[i][0] == '-') {
      return Usage();
    } else {
      prefixes.push_back(argv[i]);
    }
  }
  if (prefixes.empty()) {
    return Usage();
  }
  return Render(prefixes, top, report);
}

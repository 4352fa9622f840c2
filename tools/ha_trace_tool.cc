// ha_trace_tool — offline analysis of span traces (the .spans.csv files
// written by bench binaries via --trace-out, format: src/trace/export.h
// WriteSpansCsv).
//
//   ha_trace_tool SPANS.csv          per-layer latency breakdown,
//                                    p50/p95/p99 per span name, and the
//                                    critical path of the slowest request
//   ha_trace_tool --diff A.csv B.csv per-layer attribution diff (B vs A)
//   ha_trace_tool --self-check       internal consistency checks on
//                                    synthetic data (no input; run by
//                                    scripts/lint.sh)
//
// All statistics are over *virtual* nanoseconds — deterministic across
// runs and machines; the wall columns are carried only for skew checks.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Row {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint32_t vm = 0;
  std::string layer;
  std::string name;
  uint64_t begin_vns = 0;
  uint64_t end_vns = 0;
  uint64_t charge_ns = 0;
  uint64_t frames = 0;
  uint64_t huge_frames = 0;
  uint64_t faults = 0;
  uint64_t retries = 0;
  uint64_t begin_wall_ns = 0;
  uint64_t end_wall_ns = 0;

  uint64_t virtual_ns() const { return end_vns - begin_vns; }
};

// Accepts the current 15-column format (with the §4.14 huge_frames
// column), the 14-column pre-huge-frame format, and the 12-column
// pre-fault-injection format, so old traces stay analyzable.
bool ParseRow(const std::string& line, Row* row) {
  std::vector<std::string> fields;
  std::stringstream stream(line);
  std::string field;
  while (std::getline(stream, field, ',')) {
    fields.push_back(field);
  }
  if (fields.size() != 12 && fields.size() != 14 && fields.size() != 15) {
    return false;
  }
  try {
    row->trace_id = std::stoull(fields[0]);
    row->span_id = std::stoull(fields[1]);
    row->parent_id = std::stoull(fields[2]);
    row->vm = static_cast<uint32_t>(std::stoul(fields[3]));
    row->layer = fields[4];
    row->name = fields[5];
    row->begin_vns = std::stoull(fields[6]);
    row->end_vns = std::stoull(fields[7]);
    row->charge_ns = std::stoull(fields[8]);
    row->frames = std::stoull(fields[9]);
    size_t next = 10;
    if (fields.size() == 15) {
      row->huge_frames = std::stoull(fields[10]);
      row->faults = std::stoull(fields[11]);
      row->retries = std::stoull(fields[12]);
      next = 13;
    } else if (fields.size() == 14) {
      row->faults = std::stoull(fields[10]);
      row->retries = std::stoull(fields[11]);
      next = 12;
    }
    row->begin_wall_ns = std::stoull(fields[next]);
    row->end_wall_ns = std::stoull(fields[next + 1]);
  } catch (...) {
    return false;
  }
  return true;
}

bool Load(const std::string& path, std::vector<Row>* rows) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "ha_trace_tool: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  bool header = true;
  while (std::getline(file, line)) {
    if (header) {  // "trace_id,span_id,..."
      header = false;
      continue;
    }
    if (line.empty()) {
      continue;
    }
    Row row;
    if (!ParseRow(line, &row)) {
      std::fprintf(stderr, "ha_trace_tool: bad row: %s\n", line.c_str());
      return false;
    }
    rows->push_back(row);
  }
  return true;
}

// Layers the span pipeline can emit (src/trace/span.cc Name(Layer)).
// "telemetry" rows are zero-length event markers (alerts, flight dumps)
// from the fleet telemetry pipeline, not timed spans — they are split
// out of the latency/critical-path analysis and reported separately.
bool KnownSpanLayer(const std::string& layer) {
  static const char* const kLayers[] = {"request", "monitor", "backend",
                                        "guest",   "llfree",  "ept",
                                        "iommu"};
  for (const char* known : kLayers) {
    if (layer == known) {
      return true;
    }
  }
  return false;
}

// Splits `rows` into timed spans and telemetry event markers. Rows with
// a layer this tool does not know are kept in the span analysis (their
// timing columns are still valid) but warned about ONCE with a final
// count, instead of being silently folded in.
void SplitTelemetry(const std::vector<Row>& rows, std::vector<Row>* spans,
                    std::vector<Row>* events, uint64_t* unknown) {
  bool warned = false;
  for (const Row& row : rows) {
    if (row.layer == "telemetry") {
      events->push_back(row);
      continue;
    }
    if (!KnownSpanLayer(row.layer)) {
      ++*unknown;
      if (!warned) {
        std::fprintf(stderr,
                     "ha_trace_tool: warning: unknown span layer '%s' "
                     "(keeping in span analysis; counting further "
                     "unknowns silently)\n",
                     row.layer.c_str());
        warned = true;
      }
    }
    spans->push_back(row);
  }
}

void PrintTelemetryEvents(const std::vector<Row>& events, uint64_t unknown) {
  if (!events.empty()) {
    std::map<std::string, uint64_t> by_name;
    for (const Row& row : events) {
      ++by_name[row.name];
    }
    std::printf("Telemetry events (markers, excluded from latency stats):\n");
    for (const auto& [name, count] : by_name) {
      std::printf("  %-26s %10" PRIu64 "\n", name.c_str(), count);
    }
    std::printf("\n");
  }
  if (unknown > 0) {
    std::printf("Unknown-layer spans kept in analysis: %" PRIu64 "\n\n",
                unknown);
  }
}

// Nearest-rank percentile over a sorted sample (p in [0,100]).
uint64_t Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const size_t rank = static_cast<size_t>(
      p / 100.0 * static_cast<double>(sorted.size()) + 0.999999);
  const size_t index = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

std::map<std::string, uint64_t> LayerChargeNs(const std::vector<Row>& rows) {
  std::map<std::string, uint64_t> by_layer;
  for (const Row& row : rows) {
    by_layer[row.layer] += row.charge_ns;
  }
  return by_layer;
}

void PrintLayerBreakdown(const std::vector<Row>& rows) {
  const std::map<std::string, uint64_t> by_layer = LayerChargeNs(rows);
  uint64_t total = 0;
  for (const auto& [layer, ns] : by_layer) {
    total += ns;
  }
  std::printf("Per-layer attribution (charged virtual ns):\n");
  std::printf("  %-10s %15s %8s\n", "layer", "charge_ns", "share");
  for (const auto& [layer, ns] : by_layer) {
    std::printf("  %-10s %15" PRIu64 " %7.1f%%\n", layer.c_str(), ns,
                total > 0 ? 100.0 * static_cast<double>(ns) /
                                static_cast<double>(total)
                          : 0.0);
  }
  std::printf("  %-10s %15" PRIu64 "\n\n", "total", total);
}

void PrintPercentiles(const std::vector<Row>& rows) {
  std::map<std::string, std::vector<uint64_t>> durations;
  std::map<std::string, uint64_t> counts;
  for (const Row& row : rows) {
    durations[row.name].push_back(row.virtual_ns());
    ++counts[row.name];
  }
  std::printf("Per-op virtual latency (ns, nearest-rank):\n");
  std::printf("  %-26s %8s %12s %12s %12s\n", "op", "count", "p50", "p95",
              "p99");
  for (auto& [name, samples] : durations) {
    std::sort(samples.begin(), samples.end());
    std::printf("  %-26s %8" PRIu64 " %12" PRIu64 " %12" PRIu64 " %12" PRIu64
                "\n",
                name.c_str(), counts[name], Percentile(samples, 50),
                Percentile(samples, 95), Percentile(samples, 99));
  }
  std::printf("\n");
}

// Huge/base frame split per layer (DESIGN.md §4.14): how much of each
// layer's frame traffic moved as whole 2 MiB units. Omitted entirely for
// traces with no huge_frames column (all zeros).
void PrintHugeShare(const std::vector<Row>& rows) {
  std::map<std::string, std::pair<uint64_t, uint64_t>> by_layer;
  uint64_t total_huge = 0;
  for (const Row& row : rows) {
    by_layer[row.layer].first += row.frames;
    by_layer[row.layer].second += row.huge_frames;
    total_huge += row.huge_frames;
  }
  if (total_huge == 0) {
    return;  // pre-§4.14 trace or no huge traffic: keep report unchanged
  }
  std::printf("Huge-frame share per layer (frames moved as 2 MiB units):\n");
  std::printf("  %-10s %15s %15s %8s\n", "layer", "frames", "huge_frames",
              "share");
  for (const auto& [layer, pair] : by_layer) {
    const auto [frames, huge] = pair;
    if (frames == 0) {
      continue;
    }
    std::printf("  %-10s %15" PRIu64 " %15" PRIu64 " %7.1f%%\n",
                layer.c_str(), frames, huge,
                100.0 * static_cast<double>(huge) /
                    static_cast<double>(frames));
  }
  std::printf("\n");
}

// Fault-injection annotations (DESIGN.md §4.9): which operations took
// injected faults, and how many retries it cost to get past them.
void PrintFaults(const std::vector<Row>& rows) {
  std::map<std::string, std::pair<uint64_t, uint64_t>> by_name;
  uint64_t total_faults = 0;
  uint64_t total_retries = 0;
  for (const Row& row : rows) {
    if (row.faults == 0 && row.retries == 0) {
      continue;
    }
    by_name[row.name].first += row.faults;
    by_name[row.name].second += row.retries;
    total_faults += row.faults;
    total_retries += row.retries;
  }
  if (by_name.empty()) {
    return;  // clean trace: keep the report unchanged
  }
  std::printf("Fault annotations (injected faults / retries per op):\n");
  std::printf("  %-26s %10s %10s\n", "op", "faults", "retries");
  for (const auto& [name, counts] : by_name) {
    std::printf("  %-26s %10" PRIu64 " %10" PRIu64 "\n", name.c_str(),
                counts.first, counts.second);
  }
  std::printf("  %-26s %10" PRIu64 " %10" PRIu64 "\n\n", "total",
              total_faults, total_retries);
}

// The slowest root span's chain of heaviest children — where one request
// actually spent its virtual time, level by level.
void PrintCriticalPath(const std::vector<Row>& rows) {
  const Row* slowest = nullptr;
  for (const Row& row : rows) {
    if (row.parent_id == 0 &&
        (slowest == nullptr || row.virtual_ns() > slowest->virtual_ns())) {
      slowest = &row;
    }
  }
  if (slowest == nullptr) {
    std::printf("Critical path: no root spans in trace\n");
    return;
  }
  std::printf("Critical path of slowest request (trace %" PRIu64 "):\n",
              slowest->trace_id);
  const Row* current = slowest;
  int depth = 0;
  while (current != nullptr) {
    std::printf("  %*s%-26s %-10s %12" PRIu64 " ns  (charge %" PRIu64
                " ns, %" PRIu64 " frames)",
                2 * depth, "", current->name.c_str(), current->layer.c_str(),
                current->virtual_ns(), current->charge_ns, current->frames);
    if (current->faults > 0 || current->retries > 0) {
      std::printf("  [%" PRIu64 " faults, %" PRIu64 " retries]",
                  current->faults, current->retries);
    }
    std::printf("\n");
    const Row* heaviest = nullptr;
    for (const Row& row : rows) {
      if (row.trace_id == slowest->trace_id &&
          row.parent_id == current->span_id &&
          (heaviest == nullptr ||
           row.virtual_ns() > heaviest->virtual_ns())) {
        heaviest = &row;
      }
    }
    current = heaviest;
    ++depth;
  }
  std::printf("\n");
}

int Report(const std::string& path) {
  std::vector<Row> rows;
  if (!Load(path, &rows)) {
    return 1;
  }
  std::vector<Row> spans;
  std::vector<Row> events;
  uint64_t unknown = 0;
  SplitTelemetry(rows, &spans, &events, &unknown);
  std::printf("%s: %zu spans, %zu telemetry events\n\n", path.c_str(),
              spans.size(), events.size());
  PrintLayerBreakdown(spans);
  PrintPercentiles(spans);
  PrintHugeShare(spans);
  PrintFaults(spans);
  PrintTelemetryEvents(events, unknown);
  PrintCriticalPath(spans);
  return 0;
}

int Diff(const std::string& path_a, const std::string& path_b) {
  std::vector<Row> rows_a;
  std::vector<Row> rows_b;
  if (!Load(path_a, &rows_a) || !Load(path_b, &rows_b)) {
    return 1;
  }
  std::vector<Row> a;
  std::vector<Row> b;
  std::vector<Row> events_a;
  std::vector<Row> events_b;
  uint64_t unknown = 0;
  SplitTelemetry(rows_a, &a, &events_a, &unknown);
  SplitTelemetry(rows_b, &b, &events_b, &unknown);
  if (!events_a.empty() || !events_b.empty()) {
    std::printf("Telemetry events: %zu -> %zu (excluded from attribution)\n",
                events_a.size(), events_b.size());
  }
  const std::map<std::string, uint64_t> layers_a = LayerChargeNs(a);
  const std::map<std::string, uint64_t> layers_b = LayerChargeNs(b);
  std::map<std::string, std::pair<uint64_t, uint64_t>> merged;
  for (const auto& [layer, ns] : layers_a) {
    merged[layer].first = ns;
  }
  for (const auto& [layer, ns] : layers_b) {
    merged[layer].second = ns;
  }
  std::printf("Per-layer attribution diff (%s -> %s):\n", path_a.c_str(),
              path_b.c_str());
  std::printf("  %-10s %15s %15s %10s\n", "layer", "before_ns", "after_ns",
              "delta");
  for (const auto& [layer, pair] : merged) {
    const auto [before, after] = pair;
    if (before == 0) {
      std::printf("  %-10s %15" PRIu64 " %15" PRIu64 " %10s\n", layer.c_str(),
                  before, after, "new");
    } else {
      const double delta = 100.0 *
                           (static_cast<double>(after) -
                            static_cast<double>(before)) /
                           static_cast<double>(before);
      std::printf("  %-10s %15" PRIu64 " %15" PRIu64 " %+9.1f%%\n",
                  layer.c_str(), before, after, delta);
    }
  }
  return 0;
}

#define SELF_CHECK(cond)                                              \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "ha_trace_tool: self-check FAILED: %s\n", \
                   #cond);                                            \
      return 1;                                                       \
    }                                                                 \
  } while (0)

int SelfCheck() {
  // Percentiles: nearest-rank on a known sample.
  const std::vector<uint64_t> sample = {10, 20, 30, 40, 50,
                                        60, 70, 80, 90, 100};
  SELF_CHECK(Percentile(sample, 50) == 50);
  SELF_CHECK(Percentile(sample, 95) == 100);
  SELF_CHECK(Percentile(sample, 99) == 100);
  SELF_CHECK(Percentile({}, 50) == 0);
  SELF_CHECK(Percentile({7}, 99) == 7);

  // Row parsing round-trip: legacy 12-column rows still parse (faults
  // and retries default to 0)...
  Row row;
  SELF_CHECK(ParseRow("1,2,0,3,ept,ept.unmap_run,100,250,150,512,5,9", &row));
  SELF_CHECK(row.trace_id == 1 && row.span_id == 2 && row.parent_id == 0);
  SELF_CHECK(row.vm == 3 && row.layer == "ept" &&
             row.name == "ept.unmap_run");
  SELF_CHECK(row.virtual_ns() == 150 && row.charge_ns == 150 &&
             row.frames == 512);
  SELF_CHECK(row.faults == 0 && row.retries == 0);
  SELF_CHECK(row.begin_wall_ns == 5 && row.end_wall_ns == 9);
  // ...14-column rows carry fault annotations but no huge split...
  SELF_CHECK(
      ParseRow("1,2,0,3,ept,ept.unmap_run,100,250,150,512,2,3,5,9", &row));
  SELF_CHECK(row.faults == 2 && row.retries == 3);
  SELF_CHECK(row.huge_frames == 0);
  SELF_CHECK(row.begin_wall_ns == 5 && row.end_wall_ns == 9);
  // ...and current 15-column rows carry the §4.14 huge_frames column.
  SELF_CHECK(ParseRow(
      "1,2,0,3,ept,ept.unmap_run,100,250,150,512,512,2,3,5,9", &row));
  SELF_CHECK(row.huge_frames == 512 && row.faults == 2 &&
             row.retries == 3);
  SELF_CHECK(row.begin_wall_ns == 5 && row.end_wall_ns == 9);
  SELF_CHECK(!ParseRow("not,enough,fields", &row));
  SELF_CHECK(
      !ParseRow("1,2,0,3,ept,ept.unmap_run,100,250,150,512,2,3,5", &row));

  // Layer aggregation: spans of one synthetic trace.
  std::vector<Row> rows;
  Row r;
  r.trace_id = 1;
  r.span_id = 1;
  r.parent_id = 0;
  r.layer = "request";
  r.name = "request.inflate";
  r.begin_vns = 0;
  r.end_vns = 1000;
  r.charge_ns = 0;
  rows.push_back(r);
  r.span_id = 2;
  r.parent_id = 1;
  r.layer = "llfree";
  r.name = "llfree.reclaim_huge";
  r.begin_vns = 0;
  r.end_vns = 400;
  r.charge_ns = 400;
  rows.push_back(r);
  r.span_id = 3;
  r.parent_id = 1;
  r.layer = "ept";
  r.name = "ept.unmap_run";
  r.begin_vns = 400;
  r.end_vns = 1000;
  r.charge_ns = 600;
  rows.push_back(r);
  const std::map<std::string, uint64_t> by_layer = LayerChargeNs(rows);
  SELF_CHECK(by_layer.at("llfree") == 400);
  SELF_CHECK(by_layer.at("ept") == 600);
  SELF_CHECK(by_layer.at("request") == 0);

  // Charge closure on the synthetic trace: children sum to the root.
  uint64_t charged = 0;
  for (const Row& span : rows) {
    charged += span.charge_ns;
  }
  SELF_CHECK(charged == rows[0].virtual_ns());

  // Telemetry markers are split out of the span analysis; unknown
  // layers are counted (and kept) rather than silently folded in.
  r.span_id = 4;
  r.parent_id = 0;
  r.layer = "telemetry";
  r.name = "telemetry.alert.latency_burn";
  r.begin_vns = 500;
  r.end_vns = 500;
  r.charge_ns = 0;
  rows.push_back(r);
  r.span_id = 5;
  r.layer = "mystery";
  r.name = "mystery.op";
  rows.push_back(r);
  std::vector<Row> spans;
  std::vector<Row> events;
  uint64_t unknown = 0;
  SplitTelemetry(rows, &spans, &events, &unknown);
  SELF_CHECK(spans.size() == 4 && events.size() == 1 && unknown == 1);
  SELF_CHECK(events[0].name == "telemetry.alert.latency_burn");
  SELF_CHECK(LayerChargeNs(spans).count("telemetry") == 0);

  std::printf("ha_trace_tool: self-check OK\n");
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ha_trace_tool SPANS.csv\n"
               "       ha_trace_tool --diff A.csv B.csv\n"
               "       ha_trace_tool --self-check\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-check") == 0) {
    return SelfCheck();
  }
  if (argc == 4 && std::strcmp(argv[1], "--diff") == 0) {
    return Diff(argv[2], argv[3]);
  }
  if (argc == 2 && argv[1][0] != '-') {
    return Report(argv[1]);
  }
  return Usage();
}

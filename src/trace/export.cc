#include "src/trace/export.h"

#include <cinttypes>
#include <cstdio>

#include "src/base/check.h"

namespace hyperalloc::trace {

namespace {

// Span names are dotted lowercase identifiers, but escape defensively so
// a stray name cannot corrupt the document.
void PrintJsonString(std::FILE* file, const std::string& s) {
  std::fputc('"', file);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', file);
      std::fputc(c, file);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(file, "\\u%04x", c);
    } else {
      std::fputc(c, file);
    }
  }
  std::fputc('"', file);
}

// Prometheus metric names: dotted lowercase -> underscore-separated with
// the hyperalloc_ namespace prefix. Lossy on its own: "a.b" and "a_b"
// both mangle to "hyperalloc_a_b" (PrometheusNameMap resolves that).
std::string PrometheusName(const std::string& name) {
  std::string out = "hyperalloc_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

uint64_t Fnv1aHash(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::map<std::string, std::string> PrometheusNameMap(
    const std::vector<std::string>& names) {
  std::map<std::string, std::string> out;
  // Count distinct dotted names per mangled form; a form claimed by more
  // than one dotted name is a collision group and every member gets the
  // hash suffix (the suffix is a pure function of the dotted name, so a
  // member's final form is stable no matter who else collides with it).
  std::map<std::string, std::vector<std::string>> groups;
  for (const std::string& name : names) {
    if (out.count(name) != 0) {
      continue;  // duplicate input
    }
    out.emplace(name, std::string());
    groups[PrometheusName(name)].push_back(name);
  }
  for (const auto& [mangled, members] : groups) {
    for (const std::string& name : members) {
      if (members.size() == 1) {
        out[name] = mangled;
      } else {
        char suffix[16];
        std::snprintf(suffix, sizeof(suffix), "_x%08x",
                      static_cast<unsigned>(Fnv1aHash(name) & 0xffffffffu));
        out[name] = mangled + suffix;
      }
    }
  }
  return out;
}

void WritePerfettoJson(const std::string& path,
                       const std::vector<SpanRecord>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  HA_CHECK(file != nullptr);
  std::fprintf(file, "{\"traceEvents\":[");
  bool first = true;

  // Name the tracks: one "process" per VM, one "thread" per layer.
  // seen[vm] is a bitmask of layers with at least one span.
  std::vector<uint32_t> seen;
  for (const SpanRecord& span : spans) {
    if (span.vm >= seen.size()) {
      seen.resize(span.vm + 1, 0);
    }
    seen[span.vm] |= 1u << static_cast<unsigned>(span.layer);
  }
  for (uint32_t vm = 0; vm < seen.size(); ++vm) {
    if (seen[vm] == 0) {
      continue;
    }
    std::fprintf(file,
                 "%s\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"args\":{\"name\":\"vm%u\"}}",
                 first ? "" : ",", vm, vm);
    first = false;
    for (unsigned layer = 0; layer < kNumLayers; ++layer) {
      if ((seen[vm] & (1u << layer)) == 0) {
        continue;
      }
      std::fprintf(file,
                   "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                   "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                   first ? "" : ",", vm, layer,
                   Name(static_cast<Layer>(layer)));
    }
  }

  // Spans as ph:"X" complete events; ts/dur are µs of virtual time.
  for (const SpanRecord& span : spans) {
    std::fprintf(file,
                 "%s\n{\"name\":", first ? "" : ",");
    PrintJsonString(file, span.name);
    std::fprintf(
        file,
        ",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
        "\"args\":{\"trace_id\":%" PRIu64 ",\"span_id\":%" PRIu64
        ",\"parent_id\":%" PRIu64 ",\"charge_ns\":%" PRIu64
        ",\"frames\":%" PRIu64 ",\"huge_frames\":%" PRIu64
        ",\"faults\":%" PRIu64 ",\"retries\":%" PRIu64
        ",\"wall_ns\":%" PRIu64 "}}",
        span.vm, static_cast<unsigned>(span.layer),
        static_cast<double>(span.begin_vns) / 1000.0,
        static_cast<double>(span.virtual_ns()) / 1000.0, span.trace_id,
        span.span_id, span.parent_id, span.charge_ns, span.frames,
        span.huge_frames, span.faults, span.retries, span.wall_ns());
    first = false;
  }
  std::fprintf(file, "\n],\"displayTimeUnit\":\"ns\"}\n");
  std::fclose(file);
}

void WriteSpansCsv(const std::string& path,
                   const std::vector<SpanRecord>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  HA_CHECK(file != nullptr);
  std::fprintf(file,
               "trace_id,span_id,parent_id,vm,layer,name,begin_vns,"
               "end_vns,charge_ns,frames,huge_frames,faults,retries,"
               "begin_wall_ns,end_wall_ns\n");
  for (const SpanRecord& span : spans) {
    std::fprintf(file,
                 "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%u,%s,%s,%" PRIu64
                 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                 span.trace_id, span.span_id, span.parent_id, span.vm,
                 Name(span.layer), span.name, span.begin_vns, span.end_vns,
                 span.charge_ns, span.frames, span.huge_frames,
                 span.faults, span.retries, span.begin_wall_ns,
                 span.end_wall_ns);
  }
  std::fclose(file);
}

void WritePrometheus(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  HA_CHECK(file != nullptr);
  const auto counters = CounterRegistry::Global().Counters();
  const auto histograms = CounterRegistry::Global().Histograms();
  // Counters and histograms share one exposition namespace, so collision
  // detection must span both snapshots.
  std::vector<std::string> names;
  names.reserve(counters.size() + histograms.size());
  for (const auto& [name, value] : counters) {
    names.push_back(name);
  }
  for (const auto& [name, snap] : histograms) {
    names.push_back(name);
  }
  const std::map<std::string, std::string> metric_names =
      PrometheusNameMap(names);
  for (const auto& [name, value] : counters) {
    const std::string& metric = metric_names.at(name);
    std::fprintf(file, "# TYPE %s counter\n", metric.c_str());
    std::fprintf(file, "%s %" PRIu64 "\n", metric.c_str(), value);
  }
  for (const auto& [name, snap] : histograms) {
    const std::string& metric = metric_names.at(name);
    std::fprintf(file, "# TYPE %s histogram\n", metric.c_str());
    // Cumulative buckets; bucket b spans [BucketLowerBound(b),
    // BucketLowerBound(b+1)), so its inclusive upper bound `le` is the
    // next bucket's lower bound minus one.
    uint64_t cumulative = 0;
    for (unsigned b = 0; b + 1 < Histogram::kBuckets; ++b) {
      cumulative += snap.buckets[b];
      if (snap.buckets[b] == 0 && b != 0) {
        continue;  // keep the exposition sparse (le="0" anchors it)
      }
      std::fprintf(file, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                   metric.c_str(), Histogram::BucketLowerBound(b + 1) - 1,
                   cumulative);
    }
    std::fprintf(file, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", metric.c_str(),
                 snap.count);
    std::fprintf(file, "%s_sum %" PRIu64 "\n", metric.c_str(), snap.sum);
    std::fprintf(file, "%s_count %" PRIu64 "\n", metric.c_str(), snap.count);
  }
  std::fclose(file);
}

std::string WriteTraceArtifact(const std::string& path,
                               const std::vector<SpanRecord>& spans) {
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string perfetto = json ? path : path + ".perfetto.json";
  WritePerfettoJson(perfetto, spans);
  WriteSpansCsv(path + ".spans.csv", spans);
  WritePrometheus(path + ".prom");
  return perfetto;
}

}  // namespace hyperalloc::trace

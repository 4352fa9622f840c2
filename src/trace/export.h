// Exporters for the observability layer: serialize the drained span
// trace and the global counter/histogram registry to the Perfetto, CSV
// and Prometheus artifacts that the bench harness emits via --trace-out
// (see bench/trace_io.h).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/trace/span.h"
#include "src/trace/trace.h"

namespace hyperalloc::trace {

// Chrome trace-event / Perfetto JSON (https://ui.perfetto.dev loads it
// directly): every span becomes a ph:"X" complete event on the
// pid = VM id, tid = layer track, with ts/dur in µs of *virtual* time
// and trace_id/charge_ns/frames in args. Metadata events name the
// process ("vm<N>") and thread (layer) tracks.
void WritePerfettoJson(const std::string& path,
                       const std::vector<SpanRecord>& spans);

// Spans as CSV ("trace_id,span_id,parent_id,vm,layer,name,begin_vns,
// end_vns,charge_ns,frames,begin_wall_ns,end_wall_ns" — the format
// tools/ha_trace_tool reads).
void WriteSpansCsv(const std::string& path,
                   const std::vector<SpanRecord>& spans);

// Maps every dotted metric name to its Prometheus exposition name
// (`hyperalloc_` prefix, non-alphanumerics to '_'). Two *distinct*
// dotted names can mangle identically ("a.b" vs "a_b"); every member of
// such a collision group gets a stable `_x<8-hex FNV-1a of the dotted
// name>` suffix, so no sample silently overwrites another and a name's
// disambiguated form never depends on registration order.
std::map<std::string, std::string> PrometheusNameMap(
    const std::vector<std::string>& names);

// Prometheus text exposition: counters as `hyperalloc_<name>` counter
// samples, histograms as cumulative `_bucket{le=...}` series (power-of-2
// bounds) plus `_sum`/`_count`. Dots in names become underscores, with
// PrometheusNameMap's suffix rule breaking mangling collisions.
void WritePrometheus(const std::string& path);

// The one --trace-out artifact layout: the Perfetto JSON of `spans` at
// `path` when it ends in ".json" (else at `path + ".perfetto.json"`),
// the same spans as `path + ".spans.csv"`, and the Prometheus exposition
// of every counter and histogram as `path + ".prom"`. Returns the path of
// the Perfetto JSON.
std::string WriteTraceArtifact(const std::string& path,
                               const std::vector<SpanRecord>& spans);

}  // namespace hyperalloc::trace

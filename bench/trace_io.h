// Command-line glue between the benchmark harness and the tracing layer.
//
// Every bench binary accepts --trace-out=PATH (or "--trace-out PATH") and
// writes the one artifact layout of trace::WriteTraceArtifact (see
// src/trace/export.h). Most construct one TraceOutput at the top of
// main(): it enables span tracing with an enlarged per-thread ring and
// writes every drained span when destroyed, i.e. after the benchmark ran.
// bench_runner traces a single stage, so it calls TraceOutPath and
// WriteTraceOut itself.
#ifndef HYPERALLOC_BENCH_TRACE_IO_H_
#define HYPERALLOC_BENCH_TRACE_IO_H_

#include <string>
#include <vector>

#include "src/trace/span.h"

namespace hyperalloc::bench {

// The --trace-out path, or "" when the flag is absent. A build with
// HYPERALLOC_TRACE=0 warns that the flag is ignored and returns "".
std::string TraceOutPath(int argc, char** argv);

// Writes `spans` (plus counters and histograms) to `path` and reports
// the artifact on stderr.
void WriteTraceOut(const std::string& path,
                   const std::vector<trace::SpanRecord>& spans);

class TraceOutput {
 public:
  TraceOutput(int argc, char** argv);
  ~TraceOutput();

  TraceOutput(const TraceOutput&) = delete;
  TraceOutput& operator=(const TraceOutput&) = delete;

 private:
  std::string path_;
};

}  // namespace hyperalloc::bench

#endif  // HYPERALLOC_BENCH_TRACE_IO_H_

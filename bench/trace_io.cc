#include "bench/trace_io.h"

#include <cstdio>
#include <string_view>

#include "src/trace/export.h"
#include "src/trace/trace.h"

namespace hyperalloc::bench {

std::string TraceOutPath(int argc, char** argv) {
  constexpr std::string_view kFlag = "--trace-out";
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() > kFlag.size() + 1 && arg.substr(0, kFlag.size()) == kFlag &&
        arg[kFlag.size()] == '=') {
      path = std::string(arg.substr(kFlag.size() + 1));
    } else if (arg == kFlag && i + 1 < argc) {
      path = argv[++i];
    }
  }
#if !HYPERALLOC_TRACE
  if (!path.empty()) {
    std::fprintf(stderr,
                 "warning: --trace-out ignored (built with "
                 "HYPERALLOC_TRACE=0)\n");
    path.clear();
  }
#endif
  return path;
}

void WriteTraceOut(const std::string& path,
                   const std::vector<trace::SpanRecord>& spans) {
  const std::string perfetto = trace::WriteTraceArtifact(path, spans);
  std::fprintf(stderr,
               "trace written to %s, %s.spans.csv, %s.prom (%zu spans)\n",
               perfetto.c_str(), path.c_str(), path.c_str(), spans.size());
}

TraceOutput::TraceOutput(int argc, char** argv)
    : path_(TraceOutPath(argc, argv)) {
  if (path_.empty()) {
    return;
  }
  // Benches emit from a single thread; one big ring keeps whole runs.
  trace::SpanTracer::Global().SetCapacity(size_t{1} << 20);
  trace::SpanTracer::Global().SetEnabled(true);
}

TraceOutput::~TraceOutput() {
  if (path_.empty()) {
    return;
  }
  trace::Tracer::Global().SetTimeSource(nullptr);
  trace::SpanTracer::Global().SetEnabled(false);
  WriteTraceOut(path_, trace::SpanTracer::Global().Drain());
}

}  // namespace hyperalloc::bench

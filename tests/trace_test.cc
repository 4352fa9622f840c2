// Tests for the observability layer's lock-free counter/histogram
// registry (correctness under concurrent writers), the one --trace-out
// artifact writer and the Prometheus name mapping its exporter uses.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/hv/cost_model.h"
#include "src/sim/simulation.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"

namespace hyperalloc::trace {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { CounterRegistry::Global().ResetForTest(); }
};

[[maybe_unused]] uint64_t CounterValue(const std::string& name) {
  for (const auto& [n, v] : CounterRegistry::Global().Counters()) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

TEST_F(TraceTest, RegistryReturnsStableInstances) {
  Counter& a = CounterRegistry::Global().FindOrCreate("test.same");
  Counter& b = CounterRegistry::Global().FindOrCreate("test.same");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = CounterRegistry::Global().FindOrCreateHistogram("test.same");
  Histogram& h2 = CounterRegistry::Global().FindOrCreateHistogram("test.same");
  EXPECT_EQ(&h1, &h2);  // counters and histograms are separate namespaces
  a.Add(3);
  EXPECT_EQ(b.Value(), 3u);
}

TEST_F(TraceTest, CountersExactUnderEightThreads) {
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  Counter& counter = CounterRegistry::Global().FindOrCreate("test.mt");
  Histogram& hist =
      CounterRegistry::Global().FindOrCreateHistogram("test.mt_hist");
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &hist] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add(1);
        HA_COUNT("test.mt_macro");  // no-op when HYPERALLOC_TRACE=0
        hist.Record(i % 7);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
#if HYPERALLOC_TRACE
  EXPECT_EQ(CounterValue("test.mt_macro"), kThreads * kPerThread);
#endif
  const Histogram::Snapshot snap = hist.Read();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  // sum of i % 7 over 100000 iterations, times 8 threads.
  uint64_t per_thread_sum = 0;
  for (uint64_t i = 0; i < kPerThread; ++i) {
    per_thread_sum += i % 7;
  }
  EXPECT_EQ(snap.sum, kThreads * per_thread_sum);
}

TEST_F(TraceTest, HistogramBuckets) {
  Histogram& hist =
      CounterRegistry::Global().FindOrCreateHistogram("test.buckets");
  hist.Record(0);     // bucket 0
  hist.Record(1);     // bucket 1: [1, 2)
  hist.Record(2);     // bucket 2: [2, 4)
  hist.Record(3);     // bucket 2
  hist.Record(1024);  // bucket 11: [1024, 2048)
  const Histogram::Snapshot snap = hist.Read();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 1030u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 206.0);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[11], 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(11), 1024u);
}

#if HYPERALLOC_TRACE
TEST_F(TraceTest, MacroDeltaAndHistogram) {
  HA_COUNT_N("test.delta", 5);
  HA_COUNT_N("test.delta", 7);
  EXPECT_EQ(CounterValue("test.delta"), 12u);
  HA_HIST("test.hist_macro", 100);
  for (const auto& [name, snap] : CounterRegistry::Global().Histograms()) {
    if (name == "test.hist_macro") {
      EXPECT_EQ(snap.count, 1u);
      EXPECT_EQ(snap.sum, 100u);
    }
  }
}
#endif  // HYPERALLOC_TRACE

#if HYPERALLOC_TRACE
std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

// Emits `n` monitor-layer spans 100 virtual ns apart and drains them.
std::vector<SpanRecord> EmitSpans(size_t n) {
  SpanTracer& tracer = SpanTracer::Global();
  tracer.SetCapacity(1 << 12);  // also clears the rings
  tracer.ResetForTest();
  tracer.SetEnabled(true);
  sim::Simulation sim;
  {
    SpanContext context;
    context.clock = &sim;
    ScopedContext scoped(context);
    ScopedRoot root;
    for (size_t i = 0; i < n; ++i) {
      Span span(Layer::kMonitor, "artifact.step");
      sim.AdvanceClock(100);
    }
  }
  tracer.SetEnabled(false);
  return tracer.Drain();
}

// The one --trace-out writer with a ".json" path: PATH is the Perfetto
// trace itself and holds every span (none lost to an earlier drain),
// with the spans CSV and the Prometheus counters/histograms as siblings.
TEST_F(TraceTest, JsonExportHoldsCountersHistogramsAndEvents) {
  constexpr size_t kSpans = 5;
  const std::vector<SpanRecord> spans = EmitSpans(kSpans);
  ASSERT_EQ(spans.size(), kSpans);
  CounterRegistry::Global().FindOrCreate("test.json_counter").Add(42);
  CounterRegistry::Global().FindOrCreateHistogram("test.json_hist").Record(8);

  const std::string path = ::testing::TempDir() + "/trace_test.json";
  EXPECT_EQ(WriteTraceArtifact(path, spans), path);
  EXPECT_EQ(CountOccurrences(ReadFile(path), "\"ph\":\"X\""), kSpans);
  // Header plus one row per span.
  EXPECT_EQ(CountOccurrences(ReadFile(path + ".spans.csv"), "\n"), kSpans + 1);
  const std::string prom = ReadFile(path + ".prom");
  EXPECT_NE(prom.find("hyperalloc_test_json_counter 42\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("hyperalloc_test_json_hist_count 1\n"),
            std::string::npos)
      << prom;
}

// Any other suffix keeps PATH free: the Perfetto trace goes beside it,
// next to the spans CSV (ha_trace_tool input) and the counters.
TEST_F(TraceTest, CsvArtifactWritesEventsAndCounters) {
  constexpr size_t kSpans = 3;
  const std::vector<SpanRecord> spans = EmitSpans(kSpans);
  ASSERT_EQ(spans.size(), kSpans);
  CounterRegistry::Global().FindOrCreate("test.csv_counter").Add(1);

  const std::string path = ::testing::TempDir() + "/trace_test.csv";
  std::remove(path.c_str());
  const std::string perfetto = WriteTraceArtifact(path, spans);
  EXPECT_EQ(perfetto, path + ".perfetto.json");
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_EQ(CountOccurrences(ReadFile(perfetto), "\"ph\":\"X\""), kSpans);
  const std::string spans_csv = ReadFile(path + ".spans.csv");
  EXPECT_EQ(spans_csv.rfind("trace_id,span_id,parent_id,vm,layer,name,", 0),
            0u)
      << spans_csv;
  EXPECT_EQ(CountOccurrences(spans_csv, "artifact.step"), kSpans);
  EXPECT_NE(ReadFile(path + ".prom").find("hyperalloc_test_csv_counter 1\n"),
            std::string::npos);
}
#endif  // HYPERALLOC_TRACE

TEST_F(TraceTest, ChargeTracedAdvancesClockAndRecords) {
  sim::Simulation sim;
  EXPECT_EQ(hv::ChargeTraced(&sim, "test.charge_ns", 2500), 2500u);
  EXPECT_EQ(sim.now(), 2500u);
  for (const auto& [name, snap] : CounterRegistry::Global().Histograms()) {
    if (name == "test.charge_ns") {
      EXPECT_EQ(snap.count, 1u);
      EXPECT_EQ(snap.sum, 2500u);
    }
  }
}

// Regression: "a.b" and "a_b" both mangle to "hyperalloc_a_b"; without
// disambiguation one sample silently overwrites the other in the
// exposition. Collision groups get a stable per-name suffix.
TEST(PrometheusNameMapTest, CollisionsGetStableSuffixes) {
  const std::vector<std::string> names = {"pool.get", "pool_get",
                                          "monitor.resize"};
  const std::map<std::string, std::string> map = PrometheusNameMap(names);
  ASSERT_EQ(map.size(), 3u);
  // The unambiguous name keeps the plain mangled form.
  EXPECT_EQ(map.at("monitor.resize"), "hyperalloc_monitor_resize");
  // Both collision-group members are suffixed (neither silently claims
  // the plain form) and stay distinct.
  EXPECT_NE(map.at("pool.get"), map.at("pool_get"));
  EXPECT_NE(map.at("pool.get"), "hyperalloc_pool_get");
  EXPECT_NE(map.at("pool_get"), "hyperalloc_pool_get");
  EXPECT_EQ(map.at("pool.get").rfind("hyperalloc_pool_get_x", 0), 0u)
      << map.at("pool.get");
}

TEST(PrometheusNameMapTest, SuffixIndependentOfRegistrationOrder) {
  // A name's disambiguated form is a pure function of the name itself:
  // permuting or growing the input set never changes an existing form.
  const std::map<std::string, std::string> forward =
      PrometheusNameMap({"a.b", "a_b"});
  const std::map<std::string, std::string> reversed =
      PrometheusNameMap({"a_b", "a.b"});
  EXPECT_EQ(forward.at("a.b"), reversed.at("a.b"));
  EXPECT_EQ(forward.at("a_b"), reversed.at("a_b"));
  const std::map<std::string, std::string> grown =
      PrometheusNameMap({"a.b", "a_b", "other.metric"});
  EXPECT_EQ(forward.at("a.b"), grown.at("a.b"));
  EXPECT_EQ(grown.at("other.metric"), "hyperalloc_other_metric");
}

TEST(PrometheusNameMapTest, DuplicateInputsAndNoCollisions) {
  const std::map<std::string, std::string> map =
      PrometheusNameMap({"x.y", "x.y", "plain"});
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at("x.y"), "hyperalloc_x_y");
  EXPECT_EQ(map.at("plain"), "hyperalloc_plain");
}

}  // namespace
}  // namespace hyperalloc::trace

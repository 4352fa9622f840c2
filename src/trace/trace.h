// Low-overhead observability: named monotonic counters and bucketed
// histograms, plus the virtual clock that span timestamps read
// (src/trace/span.h records where the time goes).
//
// The paper's headline results (Figs. 4, 7–11) are operation-count × cost
// arguments — hypercalls, madvise batches, EPT/IOMMU faults, reclaim-state
// transitions. Every hot path bumps a counter (lock-free, relaxed,
// cache-line-padded shards), so those counts are first-class.
//
// Cost discipline:
//   * Compile time: building with -DHYPERALLOC_TRACE=0 turns every macro
//     below into a no-op; nothing is linked into the hot paths.
//   * Runtime: counters are always live when compiled in — a relaxed
//     fetch_add on a thread-sharded cache line.
//
// Naming scheme (see README.md "Observability"): dotted lowercase
// "<layer>.<operation>[_<unit>]", e.g. "llfree.get", "balloon.madvise",
// "monitor.install_ns". Counter/histogram names passed to HA_COUNT /
// HA_HIST must be string literals: the macros cache the registry lookup
// in a function-local static, keyed by the expansion site.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/simulation.h"

// Compile-time switch; overridable from the build system
// (-DHYPERALLOC_TRACE=0 compiles all instrumentation out).
#ifndef HYPERALLOC_TRACE
#define HYPERALLOC_TRACE 1
#endif

namespace hyperalloc::trace {

// Number of cache-line-padded shards per counter/histogram. Threads are
// striped across shards to avoid false sharing under concurrent updates.
inline constexpr unsigned kShards = 8;

// Stable per-thread shard index.
unsigned ThreadShardIndex();

// A named monotonic counter. Increments are lock-free relaxed atomics on
// a per-thread-stripe cache line; Value() sums the shards (approximate
// while writers are running, exact at quiescence).
class Counter {
 public:
  void Add(uint64_t delta) {
    shards_[ThreadShardIndex()].value.fetch_add(delta,
                                                std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kShards];
};

// A power-of-two bucketed histogram for latencies (ns) and sizes.
// Bucket 0 holds zeros; bucket b >= 1 holds values in [2^(b-1), 2^b).
class Histogram {
 public:
  static constexpr unsigned kBuckets = 65;  // 0 plus bit_width 1..64

  static unsigned BucketOf(uint64_t value) {
    return static_cast<unsigned>(std::bit_width(value));
  }
  // Inclusive lower bound of a bucket.
  static uint64_t BucketLowerBound(unsigned bucket) {
    return bucket == 0 ? 0 : 1ull << (bucket - 1);
  }

  void Record(uint64_t value) {
    Shard& shard = shards_[ThreadShardIndex()];
    shard.count[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kBuckets> buckets{};

    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  Snapshot Read() const {
    Snapshot snap;
    for (const Shard& shard : shards_) {
      snap.sum += shard.sum.load(std::memory_order_relaxed);
      for (unsigned b = 0; b < kBuckets; ++b) {
        const uint64_t n = shard.count[b].load(std::memory_order_relaxed);
        snap.buckets[b] += n;
        snap.count += n;
      }
    }
    return snap;
  }

  void Reset() {
    for (Shard& shard : shards_) {
      shard.sum.store(0, std::memory_order_relaxed);
      for (unsigned b = 0; b < kBuckets; ++b) {
        shard.count[b].store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> count[kBuckets]{};
    std::atomic<uint64_t> sum{0};
  };
  Shard shards_[kShards];
};

// Process-wide registry of named counters and histograms. Registration
// (first lookup per call site) takes a mutex; the returned references are
// stable for the process lifetime, so the hot path never locks.
class CounterRegistry {
 public:
  static CounterRegistry& Global();

  Counter& FindOrCreate(std::string_view name);
  Histogram& FindOrCreateHistogram(std::string_view name);

  // Snapshots, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> Counters() const;
  std::vector<std::pair<std::string, Histogram::Snapshot>> Histograms() const;

  // Zeroes every counter/histogram, keeping registrations (and thus the
  // references cached in function-local statics) valid.
  void ResetForTest();

 private:
  CounterRegistry() = default;
  struct Impl;
  Impl* impl();
  const Impl* impl() const;
};

// Holder of the process-wide virtual clock. Spans whose context carries
// no clock of their own stamp their begin/end with Now(); with no source
// set, Now() is 0.
class Tracer {
 public:
  static Tracer& Global();

  // The simulation must outlive every span stamped from it.
  void SetTimeSource(const sim::Simulation* sim) {
    time_source_.store(sim, std::memory_order_relaxed);
  }

  sim::Time Now() const {
    const sim::Simulation* sim = time_source_.load(std::memory_order_relaxed);
    return sim == nullptr ? 0 : sim->now();
  }

 private:
  Tracer() = default;

  std::atomic<const sim::Simulation*> time_source_{nullptr};
};

}  // namespace hyperalloc::trace

// ----------------------------------------------------------------------
// Instrumentation macros
// ----------------------------------------------------------------------
//
// `name` must be a string literal (the registry lookup is cached in a
// function-local static per expansion site).

#if HYPERALLOC_TRACE

#define HA_COUNT_N(name, delta)                                              \
  do {                                                                       \
    static ::hyperalloc::trace::Counter& ha_counter_ =                       \
        ::hyperalloc::trace::CounterRegistry::Global().FindOrCreate(name);   \
    ha_counter_.Add(delta);                                                  \
  } while (0)

#define HA_COUNT(name) HA_COUNT_N(name, 1)

#define HA_HIST(name, value)                                                 \
  do {                                                                       \
    static ::hyperalloc::trace::Histogram& ha_hist_ =                        \
        ::hyperalloc::trace::CounterRegistry::Global().FindOrCreateHistogram( \
            name);                                                           \
    ha_hist_.Record(value);                                                  \
  } while (0)

#else  // !HYPERALLOC_TRACE

#define HA_COUNT_N(name, delta) \
  do {                          \
    (void)sizeof(delta);        \
  } while (0)
#define HA_COUNT(name) \
  do {                 \
  } while (0)
#define HA_HIST(name, value) \
  do {                       \
    (void)sizeof(value);     \
  } while (0)

#endif  // HYPERALLOC_TRACE

#include "src/trace/trace.h"

#include <map>
#include <memory>
#include <mutex>

namespace hyperalloc::trace {

unsigned ThreadShardIndex() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

// ----------------------------------------------------------------------
// CounterRegistry
// ----------------------------------------------------------------------

struct CounterRegistry::Impl {
  mutable std::mutex mu;
  // std::map: stable addresses for the cached references and sorted
  // iteration for the exporters.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

CounterRegistry& CounterRegistry::Global() {
  // Leaked singleton: counters may be touched from thread_local
  // destructors during shutdown.
  static CounterRegistry* global = new CounterRegistry;
  return *global;
}

CounterRegistry::Impl* CounterRegistry::impl() {
  static Impl* impl = new Impl;
  return impl;
}

const CounterRegistry::Impl* CounterRegistry::impl() const {
  return const_cast<CounterRegistry*>(this)->impl();
}

Counter& CounterRegistry::FindOrCreate(std::string_view name) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  auto it = i->counters.find(name);
  if (it == i->counters.end()) {
    it = i->counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Histogram& CounterRegistry::FindOrCreateHistogram(std::string_view name) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  auto it = i->histograms.find(name);
  if (it == i->histograms.end()) {
    it = i->histograms
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, uint64_t>> CounterRegistry::Counters()
    const {
  const Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(i->counters.size());
  for (const auto& [name, counter] : i->counters) {
    out.emplace_back(name, counter->Value());
  }
  return out;
}

std::vector<std::pair<std::string, Histogram::Snapshot>>
CounterRegistry::Histograms() const {
  const Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  std::vector<std::pair<std::string, Histogram::Snapshot>> out;
  out.reserve(i->histograms.size());
  for (const auto& [name, histogram] : i->histograms) {
    out.emplace_back(name, histogram->Read());
  }
  return out;
}

void CounterRegistry::ResetForTest() {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  for (auto& [name, counter] : i->counters) {
    counter->Reset();
  }
  for (auto& [name, histogram] : i->histograms) {
    histogram->Reset();
  }
}

Tracer& Tracer::Global() {
  // Leaked singleton, like the registry.
  static Tracer* global = new Tracer;
  return *global;
}

}  // namespace hyperalloc::trace

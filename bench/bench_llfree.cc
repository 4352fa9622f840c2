// E12 — real wall-clock micro-benchmarks (google-benchmark) of the LLFree
// data-structure operations that underlie the paper's §5.3 rates: base and
// huge allocation, free, the bilateral hard-reclaim/return transitions,
// and the install-path CAS, plus the per-core FrameCache over the batch
// API, the host frame pool under contention, and the EPT's per-huge-frame
// map/unmap bookkeeping. These run on real hardware (no virtual time).
#include <benchmark/benchmark.h>

#include <vector>

#include "src/hv/ept.h"
#include "src/hv/host_memory.h"
#include "src/llfree/frame_cache.h"
#include "src/llfree/llfree.h"

namespace hyperalloc::llfree {
namespace {

constexpr uint64_t kFrames = 1ull << 19;  // 2 GiB worth of frames

std::unique_ptr<SharedState> FreshState(unsigned cores) {
  Config config;
  config.mode = Config::ReservationMode::kPerCore;
  config.cores = cores;
  return std::make_unique<SharedState>(kFrames, config);
}

void BM_GetPutBase(benchmark::State& state) {
  static std::unique_ptr<SharedState> shared;
  static std::unique_ptr<LLFree> alloc;
  if (state.thread_index() == 0) {
    shared = FreshState(static_cast<unsigned>(state.threads()));
    alloc = std::make_unique<LLFree>(shared.get());
  }
  const unsigned core = static_cast<unsigned>(state.thread_index());
  std::vector<FrameId> local;
  local.reserve(64);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      const Result<FrameId> r = alloc->Get(core, 0, AllocType::kMovable);
      benchmark::DoNotOptimize(r.ok());
      if (r.ok()) {
        local.push_back(*r);
      }
    }
    for (const FrameId f : local) {
      alloc->Put(f, 0);
    }
    local.clear();
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_GetPutBase)->ThreadRange(1, 4)->UseRealTime();

void BM_GetPutHuge(benchmark::State& state) {
  static std::unique_ptr<SharedState> shared;
  static std::unique_ptr<LLFree> alloc;
  if (state.thread_index() == 0) {
    shared = FreshState(static_cast<unsigned>(state.threads()));
    alloc = std::make_unique<LLFree>(shared.get());
  }
  const unsigned core = static_cast<unsigned>(state.thread_index());
  for (auto _ : state) {
    const Result<FrameId> r = alloc->Get(core, kHugeOrder, AllocType::kHuge);
    benchmark::DoNotOptimize(r.ok());
    if (r.ok()) {
      alloc->Put(*r, kHugeOrder);
    }
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_GetPutHuge)->ThreadRange(1, 4)->UseRealTime();

// The bilateral hypervisor transitions: hard reclaim + return. The paper
// measures 388 ns (reclaim untouched) and 229 ns (return) per huge frame
// including QEMU bookkeeping; the raw CAS transactions here are the lower
// bound.
void BM_ReclaimReturn(benchmark::State& state) {
  SharedState shared(kFrames, Config{});
  LLFree monitor(&shared);
  HugeId hint = 0;
  for (auto _ : state) {
    const std::optional<HugeId> h = monitor.ReclaimHuge(hint, /*hard=*/true);
    benchmark::DoNotOptimize(h.has_value());
    if (h.has_value()) {
      hint = *h + 1;
      monitor.MarkReturned(*h);
      monitor.ClearEvicted(*h);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReclaimReturn);

void BM_SoftReclaimInstall(benchmark::State& state) {
  SharedState shared(kFrames, Config{});
  LLFree monitor(&shared);
  HugeId h = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.TrySoftReclaim(h));
    benchmark::DoNotOptimize(monitor.ClearEvicted(h));
    h = (h + 1) % monitor.num_areas();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SoftReclaimInstall);

void BM_EvictedAllocationPath(benchmark::State& state) {
  // Allocation from an evicted area (triggering the install handler) vs
  // the plain path — the guest-visible cost of install-on-allocate.
  SharedState shared(kFrames, Config{});
  LLFree guest(&shared);
  LLFree monitor(&shared);
  guest.SetInstallHandler([&](HugeId huge) { monitor.ClearEvicted(huge); });
  for (auto _ : state) {
    state.PauseTiming();
    for (HugeId a = 0; a < guest.num_areas(); ++a) {
      monitor.TrySoftReclaim(a);
    }
    state.ResumeTiming();
    const Result<FrameId> r = guest.Get(0, kHugeOrder, AllocType::kHuge);
    benchmark::DoNotOptimize(r.ok());
    if (r.ok()) {
      guest.Put(*r, kHugeOrder);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvictedAllocationPath);

// Order-0 trains of 512 frames through the per-core FrameCache, which
// refills and drains in GetBatch/PutBatch halves of its capacity.
void BM_FrameCacheGetPut(benchmark::State& state) {
  constexpr unsigned kTrain = 512;
  const std::unique_ptr<SharedState> shared = FreshState(4);
  LLFree alloc(shared.get());
  FrameCache::CacheConfig config;
  config.slots = 4;
  config.capacity = kTrain;
  config.refill = kTrain / 2;
  FrameCache cache(&alloc, config);
  std::vector<FrameId> held;
  held.reserve(kTrain);
  unsigned core = 0;
  for (auto _ : state) {
    for (unsigned i = 0; i < kTrain; ++i) {
      const Result<FrameId> r = cache.Get(core, 0, AllocType::kMovable);
      benchmark::DoNotOptimize(r.ok());
      if (r.ok()) {
        held.push_back(*r);
      }
    }
    for (const FrameId f : held) {
      cache.Put(core, f, 0, AllocType::kMovable);
    }
    held.clear();
    core = (core + 1) % 4;
  }
  cache.Drain();
  state.SetItemsProcessed(state.iterations() * 2 * kTrain);
}
BENCHMARK(BM_FrameCacheGetPut);

// TryReserve/Release storm on one host pool: every thread's reserves
// and releases hit the same `used` counter. 32 MiB is smaller than even
// one thread's outstanding window (64 batches averaging 256 frames), so
// reservations also legitimately fail. One iteration is one reserve or
// release.
void BM_HostPoolReserveRelease(benchmark::State& state) {
  static std::unique_ptr<hv::HostMemory> pool;
  if (state.thread_index() == 0) {
    pool = std::make_unique<hv::HostMemory>(1ull << 13);
  }
  std::vector<uint64_t> outstanding;
  outstanding.reserve(64);
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t batch = (i++ % 7 + 1) * 64;
    if (outstanding.size() < 64 && pool->TryReserve(batch)) {
      outstanding.push_back(batch);
    } else if (!outstanding.empty()) {
      pool->Release(outstanding.back());
      outstanding.pop_back();
    }
  }
  for (const uint64_t batch : outstanding) {
    pool->Release(batch);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostPoolReserveRelease)->ThreadRange(1, 4)->UseRealTime();

// Maps one 2 MiB frame of a 1 GiB EPT (a 2M-entry promotion) and unmaps
// it again (one 2M invalidation), walking the huge frames in order. One
// iteration is one map plus one unmap: the EPT's host cost on every
// reclaim, install and THP fault.
void BM_EptMapUnmapHuge(benchmark::State& state) {
  constexpr uint64_t kEptFrames = FramesForBytes(kGiB);
  hv::HostMemory host(kEptFrames);
  hv::Ept ept(kEptFrames, &host);
  const uint64_t huges = HugesForFrames(ept.frames());
  HugeId huge = 0;
  for (auto _ : state) {
    const FrameId first = HugeToFrame(huge);
    benchmark::DoNotOptimize(ept.Map(first, kFramesPerHuge));
    benchmark::DoNotOptimize(ept.Unmap(first, kFramesPerHuge));
    benchmark::ClobberMemory();
    huge = huge + 1 == huges ? 0 : huge + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EptMapUnmapHuge);

}  // namespace
}  // namespace hyperalloc::llfree

BENCHMARK_MAIN();

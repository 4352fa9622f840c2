// Multithreaded stress tests for LLFree: the allocator must stay
// consistent when real threads (guest cores) and a hypervisor thread
// operate on the shared state concurrently — the property the paper's
// whole design rests on ("all operations are implemented by atomic memory
// transactions", §3).
//
// The model-check oracles (src/check/invariants.h) are reused here at
// quiescent points: they are build-agnostic, so the same invariants that
// gate every interleaving in tests/model_check_test.cc also gate the
// end state of each real-thread stress run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/check/invariants.h"
#include "src/llfree/frame_cache.h"
#include "src/llfree/llfree.h"

namespace hyperalloc::llfree {
namespace {

constexpr uint64_t kFrames = 32768;  // 128 MiB, 64 areas, 8 trees

// The oracles throw check::CheckFailure with the violation message; at
// quiescence (all worker threads joined) both the step inequalities and
// the exact cross-level equalities must hold.
void ExpectInvariantsHold(const SharedState& state, const LLFree& alloc) {
  try {
    check::CheckStepInvariants(state);
    check::CheckQuiescent(alloc);
  } catch (const check::CheckFailure& failure) {
    FAIL() << failure.what();
  }
}

TEST(LLFreeConcurrent, ParallelAllocFreeNoOverlap) {
  Config config;
  config.mode = Config::ReservationMode::kPerCore;
  config.cores = 4;
  SharedState state(kFrames, config);
  LLFree alloc(&state);

  constexpr unsigned kThreads = 4;
  constexpr int kIterations = 20000;
  std::vector<std::vector<FrameId>> owned(kThreads);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};

  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 1);
      for (int i = 0; i < kIterations && !failed; ++i) {
        if (owned[t].size() < 512 && rng.Chance(0.6)) {
          const Result<FrameId> r = alloc.Get(t, 0, AllocType::kMovable);
          if (r.ok()) {
            owned[t].push_back(*r);
          }
        } else if (!owned[t].empty()) {
          const size_t idx = rng.Below(owned[t].size());
          if (alloc.Put(owned[t][idx], 0).has_value()) {
            failed = true;  // double free => overlapping handout
          }
          owned[t][idx] = owned[t].back();
          owned[t].pop_back();
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_FALSE(failed);

  // No frame owned by two threads.
  std::vector<FrameId> all;
  for (const auto& frames : owned) {
    all.insert(all.end(), frames.begin(), frames.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "the same frame was handed to two threads";

  ExpectInvariantsHold(state, alloc);
  for (const FrameId f : all) {
    ASSERT_FALSE(alloc.Put(f, 0).has_value());
  }
  EXPECT_EQ(alloc.FreeFrames(), kFrames);
  ExpectInvariantsHold(state, alloc);
}

TEST(LLFreeConcurrent, MixedOrdersUnderContention) {
  Config config;  // per-type: all threads share reservation slots
  SharedState state(kFrames, config);
  LLFree alloc(&state);

  constexpr unsigned kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  std::vector<std::vector<std::pair<FrameId, unsigned>>> owned(kThreads);

  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 77);
      static constexpr unsigned kOrders[] = {0, 0, 1, 3, 9};
      for (int i = 0; i < 8000 && !failed; ++i) {
        if (rng.Chance(0.55)) {
          const unsigned order = kOrders[rng.Below(5)];
          const AllocType type = static_cast<AllocType>(rng.Below(3));
          const Result<FrameId> r = alloc.Get(t, order, type);
          if (r.ok()) {
            owned[t].emplace_back(*r, order);
          }
        } else if (!owned[t].empty()) {
          const size_t idx = rng.Below(owned[t].size());
          const auto [frame, order] = owned[t][idx];
          if (alloc.Put(frame, order).has_value()) {
            failed = true;
          }
          owned[t][idx] = owned[t].back();
          owned[t].pop_back();
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_FALSE(failed);
  ExpectInvariantsHold(state, alloc);

  uint64_t live_frames = 0;
  for (const auto& frames : owned) {
    for (const auto& [frame, order] : frames) {
      live_frames += 1ull << order;
    }
  }
  EXPECT_EQ(alloc.FreeFrames(), kFrames - live_frames);
}

// Runs [first, first + 2^order) held by the threads of one test; fails
// if two of them share a frame.
void ExpectNoOverlap(std::vector<std::pair<FrameId, unsigned>> runs) {
  std::sort(runs.begin(), runs.end());
  for (size_t i = 1; i < runs.size(); ++i) {
    const auto [prev, prev_order] = runs[i - 1];
    ASSERT_LE(prev + (1ull << prev_order), runs[i].first)
        << "frame " << runs[i].first << " was handed out twice";
  }
}

TEST(LLFreeConcurrent, BatchesUnderContention) {
  // Batch trains of orders 0, 3 and 9 from four threads through one
  // per-type allocator: the threads share the reservation slots, so
  // reservation takes, tree searches and area claims all race.
  Config config;
  SharedState state(kFrames, config);
  LLFree alloc(&state);

  constexpr unsigned kThreads = 4;
  struct Train {
    unsigned order;
    std::vector<FrameId> frames;
  };
  std::vector<std::vector<Train>> held(kThreads);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};

  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 301);
      static constexpr unsigned kOrders[] = {0, 3, 9};
      static constexpr unsigned kMaxRuns[] = {64, 16, 3};
      uint64_t held_frames = 0;
      for (int i = 0; i < 3000 && !failed; ++i) {
        if (held_frames < kFrames / (2 * kThreads) && rng.Chance(0.55)) {
          const unsigned pick = static_cast<unsigned>(rng.Below(3));
          const unsigned order = kOrders[pick];
          const unsigned count =
              1 + static_cast<unsigned>(rng.Below(kMaxRuns[pick]));
          const AllocType type = static_cast<AllocType>(rng.Below(3));
          Train train{order, {}};
          const unsigned got =
              alloc.GetBatch(t, order, count, type, &train.frames);
          if (got != train.frames.size()) {
            failed = true;
          }
          held_frames += uint64_t{got} << order;
          if (got > 0) {
            held[t].push_back(std::move(train));
          }
        } else if (!held[t].empty()) {
          const size_t idx = rng.Below(held[t].size());
          const Train& train = held[t][idx];
          if (alloc.PutBatch(train.frames, train.order) !=
              train.frames.size()) {
            failed = true;  // refused free => overlapping handout
          }
          held_frames -= train.frames.size() << train.order;
          held[t][idx] = std::move(held[t].back());
          held[t].pop_back();
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_FALSE(failed);

  std::vector<std::pair<FrameId, unsigned>> runs;
  for (const auto& trains : held) {
    for (const Train& train : trains) {
      for (const FrameId frame : train.frames) {
        runs.emplace_back(frame, train.order);
      }
    }
  }
  ExpectNoOverlap(runs);
  EXPECT_TRUE(alloc.Validate());
  ExpectInvariantsHold(state, alloc);

  for (const auto& trains : held) {
    for (const Train& train : trains) {
      ASSERT_EQ(alloc.PutBatch(train.frames, train.order),
                train.frames.size());
    }
  }
  EXPECT_EQ(alloc.FreeFrames(), kFrames);
  EXPECT_TRUE(alloc.Validate());
}

TEST(LLFreeConcurrent, FillUntilFullThenFreeRepeatedly) {
  // The tree-occupancy summary on real cores. Each of four threads fills
  // the zone until an order-0 Get fails, frees everything it holds, and
  // repeats, so failing searches clear summary bits while other threads
  // free into the trees they are clearing. One-area trees give the zone
  // 64 trees, one summary word all threads contend on. A credit lost
  // behind a clear bit would leave Validate() (which checks that every
  // tree with frames on its counter has its bit set) failing, and frames
  // invisible to every later search.
  Config config;  // per-type: the threads share the reservation slots
  config.areas_per_tree = 1;
  SharedState state(kFrames, config);
  LLFree alloc(&state);

  constexpr unsigned kThreads = 4;
  constexpr int kRounds = 12;
  std::vector<std::vector<std::pair<FrameId, unsigned>>> held(kThreads);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> refusals{0};

  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 401);
      for (int round = 0; round < kRounds && !failed; ++round) {
        for (;;) {
          const unsigned order = rng.Chance(0.05) ? kHugeOrder : 0;
          const auto type = static_cast<AllocType>(rng.Below(3));
          const Result<FrameId> r = alloc.Get(t, order, type);
          if (r.ok()) {
            held[t].emplace_back(*r, order);
          } else if (order == 0) {
            refusals.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        // Free everything: order-0 frames in batches, huge ones singly.
        std::vector<FrameId> small;
        for (const auto& [frame, order] : held[t]) {
          if (order == 0) {
            small.push_back(frame);
          } else if (alloc.Put(frame, order).has_value()) {
            failed = true;  // refused free => overlapping handout
          }
        }
        for (size_t i = 0; i < small.size(); i += 64) {
          const size_t n = std::min<size_t>(64, small.size() - i);
          if (alloc.PutBatch(std::span<const FrameId>(small).subspan(i, n),
                             0) != n) {
            failed = true;
          }
        }
        held[t].clear();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_FALSE(failed);
  EXPECT_GE(refusals.load(std::memory_order_relaxed), kThreads * kRounds);
  // Frame conservation: everything was freed, so every frame is free.
  EXPECT_EQ(alloc.FreeFrames(), kFrames);
  ExpectInvariantsHold(state, alloc);
  // And every frame can be handed out again.
  uint64_t got = 0;
  while (alloc.Get(0, kHugeOrder, AllocType::kHuge).ok()) {
    ++got;
  }
  EXPECT_EQ(got, kFrames / kFramesPerHuge);
}

TEST(LLFreeConcurrent, FrameCacheSlotsOnRealThreads) {
  // Four threads, each on its own FrameCache slot, over one allocator:
  // trains longer than the slot capacity make every cycle refill (one
  // GetBatch per miss) and drain (one PutBatch per overflow), and the
  // refills and drains of different slots race inside LLFree.
  Config config;
  SharedState state(kFrames, config);
  LLFree alloc(&state);
  constexpr unsigned kThreads = 4;
  FrameCache::CacheConfig cache_config;
  cache_config.slots = kThreads;
  cache_config.capacity = 64;
  cache_config.refill = 32;
  FrameCache cache(&alloc, cache_config);

  std::vector<std::vector<FrameId>> held(kThreads);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 501);
      for (int cycle = 0; cycle < 200 && !failed; ++cycle) {
        // The last cycle keeps its train for the overlap check below.
        if (!held[t].empty()) {
          for (size_t i = held[t].size(); i > 1; --i) {
            std::swap(held[t][i - 1], held[t][rng.Below(i)]);
          }
          for (const FrameId frame : held[t]) {
            if (cache.Put(t, frame, 0, AllocType::kMovable).has_value()) {
              failed = true;
            }
          }
          held[t].clear();
        }
        const uint64_t train = 1 + rng.Below(160);
        for (uint64_t i = 0; i < train; ++i) {
          const Result<FrameId> r = cache.Get(t, 0, AllocType::kMovable);
          if (!r.ok()) {
            failed = true;
            break;
          }
          held[t].push_back(*r);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_FALSE(failed);
  EXPECT_GT(cache.refills(), 0u);
  EXPECT_GT(cache.drains(), 0u);

  std::vector<std::pair<FrameId, unsigned>> runs;
  for (const auto& frames : held) {
    for (const FrameId frame : frames) {
      runs.emplace_back(frame, 0);
    }
  }
  ExpectNoOverlap(runs);

  for (unsigned t = 0; t < kThreads; ++t) {
    for (const FrameId frame : held[t]) {
      ASSERT_FALSE(cache.Put(t, frame, 0, AllocType::kMovable).has_value());
    }
  }
  EXPECT_EQ(cache.Drain(), 0u);
  EXPECT_EQ(cache.lost_frames(), 0u);
  EXPECT_EQ(cache.CachedFrames(), 0u);
  EXPECT_TRUE(alloc.Validate());
  EXPECT_EQ(alloc.FreeFrames(), kFrames);
}

TEST(LLFreeConcurrent, GuestVsHypervisorRace) {
  // A guest thread allocates/frees huge frames while a hypervisor thread
  // hard-reclaims and returns them — the bilateral scenario of Fig. 1.
  Config config;
  SharedState state(kFrames, config);
  LLFree guest(&state);
  LLFree monitor(&state);

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> reclaim_count{0};

  std::thread hypervisor([&] {
    Rng rng(4242);
    std::vector<HugeId> reclaimed;
    while (!stop) {
      if (rng.Chance(0.6) || reclaimed.empty()) {
        const std::optional<HugeId> h =
            monitor.ReclaimHuge(rng.Below(monitor.num_areas()), true);
        if (h.has_value()) {
          reclaimed.push_back(*h);
          ++reclaim_count;
        }
      } else {
        const size_t idx = rng.Below(reclaimed.size());
        if (!monitor.MarkReturned(reclaimed[idx])) {
          failed = true;  // hard-reclaimed frame changed under the monitor
        }
        reclaimed[idx] = reclaimed.back();
        reclaimed.pop_back();
      }
    }
    for (const HugeId h : reclaimed) {
      if (!monitor.MarkReturned(h)) {
        failed = true;
      }
    }
  });

  Rng rng(11);
  std::vector<std::pair<FrameId, unsigned>> owned;
  for (int i = 0; i < 40000 && !failed; ++i) {
    if (rng.Chance(0.55)) {
      const unsigned order = rng.Chance(0.3) ? kHugeOrder : 0;
      const Result<FrameId> r = guest.Get(0, order, AllocType::kMovable);
      if (r.ok()) {
        owned.emplace_back(*r, order);
      }
    } else if (!owned.empty()) {
      const size_t idx = rng.Below(owned.size());
      const auto [frame, order] = owned[idx];
      if (guest.Put(frame, order).has_value()) {
        failed = true;
      }
      owned[idx] = owned.back();
      owned.pop_back();
    }
  }
  // On heavily loaded (or single-core) machines the hypervisor thread may
  // not have been scheduled yet; give it a chance to do some work before
  // stopping so the interleaving is actually exercised.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (reclaim_count.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop = true;
  hypervisor.join();
  ASSERT_FALSE(failed);
  EXPECT_GT(reclaim_count.load(), 0u) << "hypervisor never reclaimed";

  for (const auto& [frame, order] : owned) {
    ASSERT_FALSE(guest.Put(frame, order).has_value());
  }
  // Evicted hints may remain set (they are hints); clear for full check.
  for (HugeId h = 0; h < guest.num_areas(); ++h) {
    guest.ClearEvicted(h);
  }
  ExpectInvariantsHold(state, guest);
  EXPECT_EQ(guest.FreeFrames(), kFrames);
}

TEST(LLFreeConcurrent, InstallHandlerRunsOnEvictedAllocation) {
  Config config;
  SharedState state(kFrames, config);
  LLFree guest(&state);
  LLFree monitor(&state);

  // Soft-reclaim every free huge frame.
  uint64_t evicted = 0;
  while (monitor.ReclaimHuge(0, /*hard=*/false).has_value()) {
    ++evicted;
  }
  EXPECT_EQ(evicted, guest.num_areas());

  std::atomic<uint64_t> installs{0};
  guest.SetInstallHandler([&](HugeId huge) {
    ++installs;
    // Two racing allocations from the same area may both trigger the
    // install; clearing twice is harmless (idempotent from the guest's
    // perspective), so no assertion on the return value.
    monitor.ClearEvicted(huge);
  });

  constexpr unsigned kThreads = 4;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const Result<FrameId> r = guest.Get(t, 0, AllocType::kMovable);
        ASSERT_TRUE(r.ok());
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_GT(installs.load(), 0u);
  ExpectInvariantsHold(state, guest);
  // Every allocated area must have been installed (no evicted area holds
  // allocations).
  for (HugeId h = 0; h < guest.num_areas(); ++h) {
    const AreaEntry e = guest.ReadArea(h);
    if (e.free < kFramesPerHuge) {
      EXPECT_FALSE(e.evicted) << "allocation from evicted area " << h
                              << " without install";
    }
  }
}

}  // namespace
}  // namespace hyperalloc::llfree

// Host frame pool: exact single-counter admission (a reservation is
// refused iff it does not fit, and a refusal changes nothing), frame
// conservation, and (under TSan) the concurrent admission /
// peak-tracking paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/hv/host_memory.h"

namespace hyperalloc {
namespace {

using hv::HostMemory;

constexpr uint64_t kBatch = 512;  // one 2 MiB huge frame's worth

// Nothing in flight: no overcommit, and the high-water mark has caught
// up with the last admission.
void ExpectQuiescent(const HostMemory& pool) {
  EXPECT_LE(pool.used_frames(), pool.total_frames()) << "overcommit";
  EXPECT_GE(pool.peak_frames(), pool.used_frames());
  EXPECT_LE(pool.peak_frames(), pool.total_frames());
}

TEST(HostMemorySharded, RebalanceRaidsOtherShardsNearTheLimit) {
  // Any thread can take the last free frames: a reservation from a
  // second thread that exactly exhausts the pool succeeds.
  HostMemory pool(2 * kBatch);
  EXPECT_TRUE(pool.TryReserve(kBatch));
  bool last_ok = false;
  std::thread([&pool, &last_ok] { last_ok = pool.TryReserve(kBatch); })
      .join();
  EXPECT_TRUE(last_ok);
  EXPECT_EQ(pool.used_frames(), 2 * kBatch);
  EXPECT_EQ(pool.free_frames(), 0u);

  // Fully committed: nothing more to admit, nothing changed by asking.
  EXPECT_FALSE(pool.TryReserve(1));
  std::thread([&pool] { EXPECT_FALSE(pool.TryReserve(1)); }).join();
  EXPECT_EQ(pool.used_frames(), 2 * kBatch);
  ExpectQuiescent(pool);
}

TEST(HostMemorySharded, ReserveSucceedsWhenPeersAndGlobalJointlyCover) {
  // Frames released on one thread are admissible from another at once:
  // 3000 frames free and a 2000-frame request from a second thread must
  // succeed, whatever thread released them.
  HostMemory pool(3000);
  EXPECT_TRUE(pool.TryReserve(2500));
  pool.Release(2500);
  bool ok = false;
  std::thread([&pool, &ok] { ok = pool.TryReserve(2000); }).join();
  EXPECT_TRUE(ok) << "3000 frames free, 2000 requested";
  EXPECT_EQ(pool.used_frames(), 2000u);
  EXPECT_EQ(pool.peak_frames(), 2500u);
  pool.Release(2000);
  EXPECT_EQ(pool.used_frames(), 0u);
  ExpectQuiescent(pool);
}

TEST(HostMemorySharded, FailedReserveReturnsPartialCredit) {
  HostMemory pool(kBatch);
  EXPECT_TRUE(pool.TryReserve(kBatch / 2));
  // Asking for more than the pool still has fails and changes nothing:
  // neither `used` nor the peak moves, and every remaining frame stays
  // admissible.
  EXPECT_FALSE(pool.TryReserve(kBatch / 2 + 1));
  EXPECT_FALSE(pool.TryReserve(kBatch));
  EXPECT_EQ(pool.used_frames(), kBatch / 2);
  EXPECT_EQ(pool.free_frames(), kBatch / 2);
  EXPECT_EQ(pool.peak_frames(), kBatch / 2);
  EXPECT_TRUE(pool.TryReserve(kBatch / 2));
  EXPECT_EQ(pool.free_frames(), 0u);
  ExpectQuiescent(pool);
}

TEST(HostMemorySharded, RandomOpsConserveCredits) {
  // Against a shadow ledger: a reservation succeeds iff it fits, and
  // `used` always equals the sum of the frames held.
  HostMemory pool(16 * kBatch);
  Rng rng(7);
  std::vector<uint64_t> held;
  uint64_t held_sum = 0;
  uint64_t max_used = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.Chance(0.55)) {
      const uint64_t frames = 1 + rng.Below(3 * kBatch);
      const bool fits = held_sum + frames <= pool.total_frames();
      ASSERT_EQ(pool.TryReserve(frames), fits);
      if (fits) {
        held.push_back(frames);
        held_sum += frames;
      }
    } else if (!held.empty()) {
      const size_t idx = rng.Below(held.size());
      pool.Release(held[idx]);
      held_sum -= held[idx];
      held[idx] = held.back();
      held.pop_back();
    }
    ASSERT_EQ(pool.used_frames(), held_sum) << "frames not conserved";
    max_used = std::max(max_used, held_sum);
  }
  EXPECT_EQ(pool.peak_frames(), max_used);
  for (const uint64_t frames : held) {
    pool.Release(frames);
  }
  EXPECT_EQ(pool.used_frames(), 0u);
  ExpectQuiescent(pool);
}

// The TSan target for scripts/check.sh: concurrent admission against one
// pool sized at half the aggregate demand, so reservations constantly
// succeed and fail. The conservation check afterwards catches lost or
// duplicated frames; TSan catches ordering bugs on the way.
TEST(HostMemorySharded, ConcurrentStressConservesFrames) {
  constexpr unsigned kThreads = 4;
  constexpr int kIters = 20000;
  HostMemory pool(8 * kBatch);
  std::atomic<uint64_t> observed_peak{0};

  auto worker = [&pool, &observed_peak](unsigned seed) {
    Rng rng(seed);
    std::vector<uint64_t> held;
    for (int i = 0; i < kIters; ++i) {
      if (rng.Chance(0.6)) {
        const uint64_t frames = 1 + rng.Below(kBatch);
        if (pool.TryReserve(frames)) {
          held.push_back(frames);
          // Witness a lower bound for the high-water mark.
          const uint64_t used = pool.used_frames();
          uint64_t seen = observed_peak.load(std::memory_order_relaxed);
          while (seen < used &&
                 !observed_peak.compare_exchange_weak(
                     seen, used, std::memory_order_relaxed)) {
          }
        }
      } else if (!held.empty()) {
        pool.Release(held.back());
        held.pop_back();
      }
    }
    for (const uint64_t frames : held) {
      pool.Release(frames);
    }
  };

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back(worker, 100 + t);
  }
  for (std::thread& t : threads) {
    t.join();
  }

  EXPECT_EQ(pool.used_frames(), 0u);
  ExpectQuiescent(pool);
  // The CAS-max loop must never lose to a smaller value: the final peak
  // is at least any usage any thread ever observed.
  EXPECT_GE(pool.peak_frames(), observed_peak.load());
}

// Each of 4 threads holds at most a quarter of the pool, so the summed
// outstanding frames never exceed `total`: an exact admission counter
// must admit every single reservation, whatever the interleaving.
TEST(HostMemorySharded, ConcurrentReservesBelowCapacityNeverFail) {
  constexpr unsigned kThreads = 4;
  constexpr int kIters = 20000;
  constexpr uint64_t kShare = 2 * kBatch;
  HostMemory pool(kThreads * kShare);
  std::atomic<uint64_t> refused{0};

  auto worker = [&pool, &refused](unsigned seed) {
    Rng rng(seed);
    std::vector<uint64_t> held;
    uint64_t held_sum = 0;
    for (int i = 0; i < kIters; ++i) {
      const uint64_t frames = 1 + rng.Below(kBatch);
      if (held_sum + frames <= kShare && rng.Chance(0.6)) {
        if (pool.TryReserve(frames)) {
          held.push_back(frames);
          held_sum += frames;
        } else {
          refused.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (!held.empty()) {
        pool.Release(held.back());
        held_sum -= held.back();
        held.pop_back();
      }
    }
    for (const uint64_t frames : held) {
      pool.Release(frames);
    }
  };

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back(worker, 200 + t);
  }
  for (std::thread& t : threads) {
    t.join();
  }

  EXPECT_EQ(refused.load(), 0u) << "a reservation that fit was refused";
  EXPECT_EQ(pool.used_frames(), 0u);
  ExpectQuiescent(pool);
}

TEST(HostMemorySharded, ConcurrentSnapshotsStayInBounds) {
  HostMemory pool(4 * kBatch);
  std::atomic<bool> stop{false};
  std::thread reader([&pool, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const hv::MemorySnapshot s = pool.snapshot();
      EXPECT_EQ(s.total, s.used + s.free);
      EXPECT_GE(s.peak, s.used);
      EXPECT_LE(s.used, s.total);
    }
  });
  Rng rng(3);
  std::vector<uint64_t> held;
  for (int i = 0; i < 20000; ++i) {
    if (rng.Chance(0.6)) {
      const uint64_t frames = 1 + rng.Below(kBatch / 2);
      if (pool.TryReserve(frames)) {
        held.push_back(frames);
      }
    } else if (!held.empty()) {
      pool.Release(held.back());
      held.pop_back();
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  for (const uint64_t frames : held) {
    pool.Release(frames);
  }
  ExpectQuiescent(pool);
}

}  // namespace
}  // namespace hyperalloc

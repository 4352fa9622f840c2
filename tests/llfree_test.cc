// Unit and property tests for the LLFree allocator and its HyperAlloc
// bilateral extensions (single-threaded; see llfree_concurrent_test.cc for
// the multithreaded stress tests).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/base/rng.h"
#include "src/llfree/frame_cache.h"
#include "src/llfree/llfree.h"

namespace hyperalloc::llfree {
namespace {

constexpr uint64_t kFrames16MiB = 4096;    // 8 areas = 1 tree (default cfg)
constexpr uint64_t kFrames64MiB = 16384;   // 32 areas = 4 trees
constexpr uint64_t kFrames256MiB = 65536;  // 128 areas = 16 trees

Config DefaultConfig() { return Config{}; }

Config PerCoreConfig(unsigned cores) {
  Config config;
  config.mode = Config::ReservationMode::kPerCore;
  config.cores = cores;
  return config;
}

class LLFreeTest : public ::testing::Test {
 protected:
  void Init(uint64_t frames, const Config& config = DefaultConfig()) {
    state_ = std::make_unique<SharedState>(frames, config);
    alloc_ = std::make_unique<LLFree>(state_.get());
  }

  std::unique_ptr<SharedState> state_;
  std::unique_ptr<LLFree> alloc_;
};

TEST_F(LLFreeTest, GeometryAndInitialState) {
  Init(kFrames64MiB);
  EXPECT_EQ(alloc_->frames(), kFrames64MiB);
  EXPECT_EQ(alloc_->num_areas(), 32u);
  EXPECT_EQ(alloc_->num_trees(), 4u);
  EXPECT_EQ(alloc_->FreeFrames(), kFrames64MiB);
  EXPECT_EQ(alloc_->FreeHugeFrames(), 32u);
  EXPECT_EQ(alloc_->UsedHugeAreas(), 0u);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, SharedBytesMatchesPaperScanFootprint) {
  // Paper §3.3: scanning 1 GiB of guest memory touches 18 cache lines of
  // index state (2 bits R on the host side + 16 bits A per huge frame).
  // The guest-shared area index alone is 16 b/huge = 8 cache lines/GiB.
  Init(kGiB / kFrameSize);
  const uint64_t area_index_bytes = alloc_->num_areas() * sizeof(uint16_t);
  EXPECT_EQ(area_index_bytes, 1024u);  // 512 areas * 2 B = 16 cache lines
  EXPECT_EQ(alloc_->state().SharedBytes(),
            kGiB / kFrameSize / 8 + 1024 + alloc_->num_trees() * 4);
}

TEST_F(LLFreeTest, AllocFreeSingleFrame) {
  Init(kFrames16MiB);
  const Result<FrameId> frame = alloc_->Get(0, 0, AllocType::kMovable);
  ASSERT_TRUE(frame.ok());
  EXPECT_LT(*frame, kFrames16MiB);
  EXPECT_EQ(alloc_->FreeFrames(), kFrames16MiB - 1);
  EXPECT_FALSE(alloc_->Put(*frame, 0).has_value());
  EXPECT_EQ(alloc_->FreeFrames(), kFrames16MiB);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, DoubleFreeDetected) {
  Init(kFrames16MiB);
  const Result<FrameId> frame = alloc_->Get(0, 0, AllocType::kMovable);
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(alloc_->Put(*frame, 0).has_value());
  const auto err = alloc_->Put(*frame, 0);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, AllocError::kInvalid);
}

TEST_F(LLFreeTest, FreeUnallocatedHugeIsInvalid) {
  Init(kFrames16MiB);
  const auto err = alloc_->Put(0, kHugeOrder);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, AllocError::kInvalid);
}

TEST_F(LLFreeTest, OutOfRangeAndMisalignedFreesRejected) {
  Init(kFrames16MiB);
  EXPECT_EQ(alloc_->Put(kFrames16MiB, 0), AllocError::kInvalid);
  EXPECT_EQ(alloc_->Put(3, 2), AllocError::kInvalid);  // not 4-aligned
}

TEST_F(LLFreeTest, BatchRoundTrip) {
  Init(kFrames64MiB);
  std::vector<FrameId> frames;
  const unsigned got = alloc_->GetBatch(0, 0, 300, AllocType::kMovable,
                                        &frames);
  ASSERT_EQ(got, 300u);
  ASSERT_EQ(frames.size(), 300u);
  const std::set<FrameId> unique(frames.begin(), frames.end());
  EXPECT_EQ(unique.size(), 300u) << "batch returned duplicate frames";
  EXPECT_EQ(alloc_->FreeFrames(), kFrames64MiB - 300);
  EXPECT_TRUE(alloc_->Validate());
  EXPECT_EQ(alloc_->PutBatch(frames, 0), 300u);
  EXPECT_EQ(alloc_->FreeFrames(), kFrames64MiB);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, BatchSequenceEquivalentToSingles) {
  // A batched allocator and a single-frame allocator replaying the same
  // logical sequence must agree on every aggregate at every step, and
  // both must validate — the batch path is an optimization, not a new
  // allocation policy.
  Init(kFrames64MiB);
  SharedState single_state(kFrames64MiB, DefaultConfig());
  LLFree single(&single_state);

  const struct {
    unsigned order;
    unsigned count;
  } rounds[] = {{0, 513}, {2, 17}, {6, 9}, {0, 64}, {3, 5},
                {0, 1},   {7, 3},  {8, 2}, {9, 4}};
  std::vector<std::pair<unsigned, std::vector<FrameId>>> batched_held;
  std::vector<std::pair<unsigned, std::vector<FrameId>>> single_held;
  for (const auto& round : rounds) {
    std::vector<FrameId> batched;
    ASSERT_EQ(alloc_->GetBatch(0, round.order, round.count,
                               AllocType::kMovable, &batched),
              round.count);
    std::vector<FrameId> singles;
    for (unsigned i = 0; i < round.count; ++i) {
      const Result<FrameId> r = single.Get(0, round.order,
                                           AllocType::kMovable);
      ASSERT_TRUE(r.ok());
      singles.push_back(*r);
    }
    EXPECT_EQ(alloc_->FreeFrames(), single.FreeFrames());
    EXPECT_TRUE(alloc_->Validate());
    EXPECT_TRUE(single.Validate());
    batched_held.emplace_back(round.order, std::move(batched));
    single_held.emplace_back(round.order, std::move(singles));
  }
  for (size_t i = 0; i < batched_held.size(); ++i) {
    EXPECT_EQ(alloc_->PutBatch(batched_held[i].second, batched_held[i].first),
              batched_held[i].second.size());
    for (const FrameId frame : single_held[i].second) {
      EXPECT_FALSE(single.Put(frame, single_held[i].first).has_value());
    }
    EXPECT_EQ(alloc_->FreeFrames(), single.FreeFrames());
  }
  EXPECT_EQ(alloc_->FreeFrames(), kFrames64MiB);
  EXPECT_EQ(alloc_->FreeHugeFrames(), single.FreeHugeFrames());
  EXPECT_TRUE(alloc_->Validate());
  EXPECT_TRUE(single.Validate());
}

TEST_F(LLFreeTest, PutBatchSkipsInvalidEntries) {
  Init(kFrames16MiB);
  std::vector<FrameId> frames;
  ASSERT_EQ(alloc_->GetBatch(0, 0, 10, AllocType::kMovable, &frames), 10u);
  frames.push_back(kFrames16MiB + 7);  // out of range: skipped, not fatal
  EXPECT_EQ(alloc_->PutBatch(frames, 0), 10u);
  EXPECT_EQ(alloc_->FreeFrames(), kFrames16MiB);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, PutBatchDetectsDuplicates) {
  Init(kFrames16MiB);
  std::vector<FrameId> frames;
  ASSERT_EQ(alloc_->GetBatch(0, 0, 8, AllocType::kMovable, &frames), 8u);
  frames.push_back(frames[0]);  // double free inside one batch
  EXPECT_EQ(alloc_->PutBatch(frames, 0), 8u);
  EXPECT_EQ(alloc_->FreeFrames(), kFrames16MiB);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, GetBatchPartialWhenNearlyFull) {
  Init(kFrames16MiB);
  // Claim everything, return 5 frames, then ask for 64: the batch takes
  // what exists and reports the shortfall instead of failing outright.
  std::vector<FrameId> all;
  ASSERT_EQ(alloc_->GetBatch(0, 0, kFrames16MiB, AllocType::kMovable, &all),
            kFrames16MiB);
  EXPECT_EQ(alloc_->FreeFrames(), 0u);
  std::vector<FrameId> returned(all.begin(), all.begin() + 5);
  ASSERT_EQ(alloc_->PutBatch(returned, 0), 5u);
  std::vector<FrameId> refill;
  EXPECT_EQ(alloc_->GetBatch(0, 0, 64, AllocType::kMovable, &refill), 5u);
  EXPECT_EQ(alloc_->FreeFrames(), 0u);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, FrameCacheHitsAvoidAllocator) {
  Init(kFrames16MiB);
  FrameCache::CacheConfig cc;
  cc.slots = 1;
  cc.capacity = 64;
  cc.refill = 32;
  FrameCache cache(alloc_.get(), cc);
  const Result<FrameId> a = cache.Get(0, 0, AllocType::kMovable);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(cache.refills(), 1u);  // miss pulled one batch
  const Result<FrameId> b = cache.Get(0, 0, AllocType::kMovable);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.refills(), 1u);  // served from the slot stack
  EXPECT_FALSE(cache.Put(0, *a, 0, AllocType::kMovable).has_value());
  EXPECT_FALSE(cache.Put(0, *b, 0, AllocType::kMovable).has_value());
}

TEST_F(LLFreeTest, FrameCacheDrainOnQuiesce) {
  Init(kFrames16MiB);
  FrameCache::CacheConfig cc;
  cc.slots = 2;
  cc.capacity = 64;
  cc.refill = 32;
  FrameCache cache(alloc_.get(), cc);
  // One get/put pair leaves a refill batch parked: those frames look
  // allocated to LLFree but are free to the cache's user.
  const Result<FrameId> frame = cache.Get(1, 0, AllocType::kMovable);
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(cache.Put(1, *frame, 0, AllocType::kMovable).has_value());
  EXPECT_EQ(cache.CachedFrames(), cc.refill);
  EXPECT_EQ(alloc_->FreeFrames(), kFrames16MiB - cc.refill);
  // Drain restores quiescence: every parked frame back, counters intact.
  cache.Drain();
  EXPECT_EQ(cache.CachedFrames(), 0u);
  EXPECT_EQ(alloc_->FreeFrames(), kFrames16MiB);
  EXPECT_EQ(cache.drains(), 1u);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, FrameCachePassesThroughNonBasePages) {
  Init(kFrames16MiB);
  FrameCache::CacheConfig cc;
  FrameCache cache(alloc_.get(), cc);
  const Result<FrameId> huge = cache.Get(0, kHugeOrder, AllocType::kMovable);
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(cache.CachedFrames(), 0u);  // no caching above order 0
  EXPECT_FALSE(
      cache.Put(0, *huge, kHugeOrder, AllocType::kMovable).has_value());
  EXPECT_EQ(alloc_->FreeFrames(), kFrames16MiB);
}

TEST_F(LLFreeTest, FrameCacheBypassesUnmovableFrees) {
  Init(kFrames16MiB);
  FrameCache::CacheConfig cc;
  cc.slots = 1;
  cc.capacity = 64;
  cc.refill = 32;
  FrameCache cache(alloc_.get(), cc);
  // Unmovable traffic passes through on both sides: the free returns
  // through LLFree's type-aware slot selection instead of parking in
  // the (movable-only) stack, so movability grouping is preserved.
  const Result<FrameId> f = cache.Get(0, 0, AllocType::kUnmovable);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(cache.CachedFrames(), 0u);
  EXPECT_FALSE(cache.Put(0, *f, 0, AllocType::kUnmovable).has_value());
  EXPECT_EQ(cache.CachedFrames(), 0u);
  EXPECT_EQ(alloc_->FreeFrames(), kFrames16MiB);
  // The uncached path keeps failing fast on a double free.
  EXPECT_EQ(cache.Put(0, *f, 0, AllocType::kUnmovable),
            AllocError::kInvalid);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, FrameCacheSurfacesDoubleFreeAtDrain) {
  Init(kFrames16MiB);
  FrameCache::CacheConfig cc;
  cc.slots = 1;
  cc.capacity = 2;
  cc.refill = 2;
  FrameCache cache(alloc_.get(), cc);
  // Take three frames directly (bypassing the cache) so the cache's
  // stack holds frames it believes it owns.
  const Result<FrameId> a = alloc_->Get(0, 0, AllocType::kMovable);
  const Result<FrameId> x1 = alloc_->Get(0, 0, AllocType::kMovable);
  const Result<FrameId> x2 = alloc_->Get(0, 0, AllocType::kMovable);
  ASSERT_TRUE(a.ok() && x1.ok() && x2.ok());
  // First free of `a` drains back to the allocator cleanly.
  EXPECT_FALSE(cache.Put(0, *a, 0, AllocType::kMovable).has_value());
  EXPECT_EQ(cache.Drain(), 0u);
  EXPECT_EQ(alloc_->FreeFrames(), kFrames16MiB - 2);
  // Double free of `a`: it parks undetected (the slot no longer holds
  // it), and the overflow drain is where the allocator refuses it — the
  // Put that triggered that drain reports kInvalid instead of a crash,
  // and the refused frame is dropped, not handed out twice.
  EXPECT_FALSE(cache.Put(0, *a, 0, AllocType::kMovable).has_value());
  EXPECT_FALSE(cache.Put(0, *x1, 0, AllocType::kMovable).has_value());
  EXPECT_EQ(cache.Put(0, *x2, 0, AllocType::kMovable),
            AllocError::kInvalid);
  EXPECT_EQ(cache.lost_frames(), 1u);
  // x2 is still parked; the final drain returns it without incident.
  EXPECT_EQ(cache.Drain(), 0u);
  EXPECT_EQ(cache.CachedFrames(), 0u);
  EXPECT_EQ(alloc_->FreeFrames(), kFrames16MiB);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, UnsupportedOrdersRejected) {
  Init(kFrames16MiB);
  for (unsigned order : {10u, 11u, 12u}) {
    const Result<FrameId> r = alloc_->Get(0, order, AllocType::kMovable);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), AllocError::kInvalid);
    EXPECT_EQ(alloc_->Put(0, order), AllocError::kInvalid);
  }
}

class LLFreeOrderTest : public LLFreeTest,
                        public ::testing::WithParamInterface<unsigned> {};

TEST_P(LLFreeOrderTest, AlignedAllocationRoundTrip) {
  const unsigned order = GetParam();
  Init(kFrames64MiB);
  const uint64_t size = 1ull << order;
  std::vector<FrameId> frames;
  for (int i = 0; i < 10; ++i) {
    const Result<FrameId> r = alloc_->Get(0, order, AllocType::kMovable);
    ASSERT_TRUE(r.ok()) << "order " << order << " iteration " << i;
    EXPECT_EQ(*r % size, 0u) << "misaligned order-" << order << " frame";
    frames.push_back(*r);
  }
  // All distinct, non-overlapping.
  std::set<FrameId> unique(frames.begin(), frames.end());
  EXPECT_EQ(unique.size(), frames.size());
  EXPECT_EQ(alloc_->FreeFrames(), kFrames64MiB - 10 * size);
  for (const FrameId f : frames) {
    EXPECT_FALSE(alloc_->Put(f, order).has_value());
  }
  EXPECT_EQ(alloc_->FreeFrames(), kFrames64MiB);
  EXPECT_TRUE(alloc_->Validate());
}

INSTANTIATE_TEST_SUITE_P(AllOrders, LLFreeOrderTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u, kHugeOrder));

TEST_F(LLFreeTest, ExhaustAndRefillWithHugeFrames) {
  Init(kFrames64MiB);
  std::vector<FrameId> frames;
  for (;;) {
    const Result<FrameId> r = alloc_->Get(0, kHugeOrder, AllocType::kHuge);
    if (!r.ok()) {
      EXPECT_EQ(r.error(), AllocError::kNoMemory);
      break;
    }
    frames.push_back(*r);
  }
  EXPECT_EQ(frames.size(), 32u);
  EXPECT_EQ(alloc_->FreeFrames(), 0u);
  EXPECT_EQ(alloc_->UsedHugeAreas(), 32u);
  for (const FrameId f : frames) {
    EXPECT_FALSE(alloc_->Put(f, kHugeOrder).has_value());
  }
  EXPECT_EQ(alloc_->FreeHugeFrames(), 32u);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, ExhaustBaseFrames) {
  Init(kFrames16MiB);
  std::vector<FrameId> frames;
  for (uint64_t i = 0; i < kFrames16MiB; ++i) {
    const Result<FrameId> r = alloc_->Get(0, 0, AllocType::kMovable);
    ASSERT_TRUE(r.ok()) << "allocation " << i;
    frames.push_back(*r);
  }
  const Result<FrameId> r = alloc_->Get(0, 0, AllocType::kMovable);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), AllocError::kNoMemory);
  // All frames handed out exactly once.
  std::set<FrameId> unique(frames.begin(), frames.end());
  EXPECT_EQ(unique.size(), kFrames16MiB);
}

// Trains of 512 base or huge frames (every eighth train huge), each
// fully allocated then freed, rotating over 4 per-core reservations on
// a 4 GiB allocator: every Get succeeds and every train returns intact.
TEST_F(LLFreeTest, MixedOrderTrainsRoundTrip) {
  Config config;
  config.cores = 4;
  Init(1ull << 20, config);
  std::vector<FrameId> held;
  for (unsigned round = 0; round < 64; ++round) {
    const unsigned order = round % 8 == 0 ? kHugeOrder : 0;
    for (int i = 0; i < 512; ++i) {
      const Result<FrameId> r =
          alloc_->Get(round % 4, order, AllocType::kMovable);
      ASSERT_TRUE(r.ok()) << "round " << round << ", get " << i;
      held.push_back(*r);
    }
    for (const FrameId frame : held) {
      ASSERT_FALSE(alloc_->Put(frame, order).has_value());
    }
    held.clear();
  }
  EXPECT_EQ(alloc_->FreeFrames(), 1ull << 20);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, MixedTypesSucceedInSingleTree) {
  // Regression test for the reservation fallback: with one tree and
  // per-type reservations, the second and third type must still allocate.
  Init(kFrames16MiB);
  EXPECT_TRUE(alloc_->Get(0, 0, AllocType::kMovable).ok());
  EXPECT_TRUE(alloc_->Get(0, 0, AllocType::kUnmovable).ok());
  EXPECT_TRUE(alloc_->Get(0, kHugeOrder, AllocType::kHuge).ok());
}

TEST_F(LLFreeTest, PerTypeReservationsSeparateTrees) {
  Init(kFrames256MiB);
  const Result<FrameId> movable = alloc_->Get(0, 0, AllocType::kMovable);
  const Result<FrameId> unmovable = alloc_->Get(0, 0, AllocType::kUnmovable);
  ASSERT_TRUE(movable.ok());
  ASSERT_TRUE(unmovable.ok());
  const uint64_t tree_frames = 8 * kFramesPerHuge;
  EXPECT_NE(*movable / tree_frames, *unmovable / tree_frames)
      << "unmovable and movable allocations should use different trees";
  const Reservation movable_res =
      alloc_->ReadReservation(static_cast<unsigned>(AllocType::kMovable));
  const Reservation unmovable_res =
      alloc_->ReadReservation(static_cast<unsigned>(AllocType::kUnmovable));
  EXPECT_TRUE(movable_res.active);
  EXPECT_TRUE(unmovable_res.active);
  EXPECT_NE(movable_res.tree, unmovable_res.tree);
  EXPECT_EQ(alloc_->ReadTree(movable_res.tree).type, AllocType::kMovable);
  EXPECT_EQ(alloc_->ReadTree(unmovable_res.tree).type, AllocType::kUnmovable);
}

TEST_F(LLFreeTest, CompatibleTypesShareTreesUnderFragmentation) {
  // Movable and huge allocations (both movable in Linux terms) may fill
  // each other's partial trees; unmovable trees stay untouched while
  // free trees exist.
  Init(kFrames256MiB);
  // Build a partial movable tree and a partial unmovable tree.
  const Result<FrameId> movable = alloc_->Get(0, 0, AllocType::kMovable);
  const Result<FrameId> unmovable = alloc_->Get(0, 0, AllocType::kUnmovable);
  ASSERT_TRUE(movable.ok());
  ASSERT_TRUE(unmovable.ok());
  alloc_->DrainReservations();
  const uint64_t movable_tree = *movable / (8 * kFramesPerHuge);
  const uint64_t unmovable_tree = *unmovable / (8 * kFramesPerHuge);

  // A huge-type allocation prefers the partial movable tree over a
  // fresh one (compatible types pack together) ...
  const Result<FrameId> huge = alloc_->Get(0, kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(*huge / (8 * kFramesPerHuge), movable_tree);
  // ... and never lands in the unmovable tree while anything else exists.
  EXPECT_NE(*huge / (8 * kFramesPerHuge), unmovable_tree);
}

TEST_F(LLFreeTest, PerCoreReservationsSeparateTrees) {
  Init(kFrames256MiB, PerCoreConfig(4));
  const Result<FrameId> a = alloc_->Get(0, 0, AllocType::kMovable);
  const Result<FrameId> b = alloc_->Get(1, 0, AllocType::kMovable);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const uint64_t tree_frames = 8 * kFramesPerHuge;
  EXPECT_NE(*a / tree_frames, *b / tree_frames);
}

TEST_F(LLFreeTest, DrainReservationsReleasesTrees) {
  Init(kFrames64MiB);
  ASSERT_TRUE(alloc_->Get(0, 0, AllocType::kMovable).ok());
  const Reservation before =
      alloc_->ReadReservation(static_cast<unsigned>(AllocType::kMovable));
  ASSERT_TRUE(before.active);
  alloc_->DrainReservations();
  const Reservation after =
      alloc_->ReadReservation(static_cast<unsigned>(AllocType::kMovable));
  EXPECT_FALSE(after.active);
  EXPECT_FALSE(alloc_->ReadTree(before.tree).reserved);
  EXPECT_TRUE(alloc_->Validate());
}

// ---------------------------------------------------------------------
// Bilateral (HyperAlloc) operations
// ---------------------------------------------------------------------

TEST_F(LLFreeTest, HardReclaimMakesFrameUnavailable) {
  Init(kFrames16MiB);
  const std::optional<HugeId> huge = alloc_->ReclaimHuge(0, /*hard=*/true);
  ASSERT_TRUE(huge.has_value());
  const AreaEntry entry = alloc_->ReadArea(*huge);
  EXPECT_TRUE(entry.allocated);
  EXPECT_TRUE(entry.evicted);
  EXPECT_EQ(entry.free, 0u);
  EXPECT_EQ(alloc_->FreeFrames(), kFrames16MiB - kFramesPerHuge);
  EXPECT_TRUE(alloc_->Validate());

  // The guest cannot allocate the reclaimed frame; the rest still works.
  std::set<HugeId> allocated_areas;
  for (;;) {
    const Result<FrameId> r = alloc_->Get(0, kHugeOrder, AllocType::kHuge);
    if (!r.ok()) {
      break;
    }
    allocated_areas.insert(FrameToHuge(*r));
  }
  EXPECT_EQ(allocated_areas.size(), 7u);
  EXPECT_EQ(allocated_areas.count(*huge), 0u);
}

TEST_F(LLFreeTest, HardReclaimAllThenNoMemory) {
  Init(kFrames16MiB);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(alloc_->ReclaimHuge(0, /*hard=*/true).has_value());
  }
  EXPECT_FALSE(alloc_->ReclaimHuge(0, /*hard=*/true).has_value());
  EXPECT_EQ(alloc_->FreeFrames(), 0u);
  const Result<FrameId> r = alloc_->Get(0, 0, AllocType::kMovable);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), AllocError::kNoMemory);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, SoftReclaimKeepsFrameAllocatable) {
  Init(kFrames16MiB);
  const std::optional<HugeId> huge = alloc_->ReclaimHuge(0, /*hard=*/false);
  ASSERT_TRUE(huge.has_value());
  const AreaEntry entry = alloc_->ReadArea(*huge);
  EXPECT_FALSE(entry.allocated);
  EXPECT_TRUE(entry.evicted);
  EXPECT_EQ(entry.free, kFramesPerHuge);
  // Frame count unchanged: soft-reclaimed frames stay logically free.
  EXPECT_EQ(alloc_->FreeFrames(), kFrames16MiB);
  EXPECT_EQ(alloc_->EvictedAreas(), 1u);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, ReturnTransitionsHardToSoft) {
  Init(kFrames16MiB);
  const std::optional<HugeId> huge = alloc_->ReclaimHuge(0, /*hard=*/true);
  ASSERT_TRUE(huge.has_value());
  EXPECT_TRUE(alloc_->MarkReturned(*huge));
  const AreaEntry entry = alloc_->ReadArea(*huge);
  EXPECT_FALSE(entry.allocated);
  EXPECT_TRUE(entry.evicted);
  EXPECT_EQ(alloc_->FreeFrames(), kFrames16MiB);
  EXPECT_TRUE(alloc_->Validate());

  // Returning twice fails (already soft).
  EXPECT_FALSE(alloc_->MarkReturned(*huge));
}

TEST_F(LLFreeTest, ClearAndSetEvicted) {
  Init(kFrames16MiB);
  EXPECT_FALSE(alloc_->ClearEvicted(0));  // not evicted yet
  EXPECT_TRUE(alloc_->SetEvicted(0));
  EXPECT_FALSE(alloc_->SetEvicted(0));  // idempotence check
  EXPECT_TRUE(alloc_->ReadArea(0).evicted);
  EXPECT_TRUE(alloc_->ClearEvicted(0));
  EXPECT_FALSE(alloc_->ReadArea(0).evicted);
}

TEST_F(LLFreeTest, AllocationPrefersNonEvictedFrames) {
  Init(kFrames16MiB);
  // Soft-reclaim areas 0..5; only 6 and 7 remain backed.
  for (HugeId h = 0; h < 6; ++h) {
    ASSERT_TRUE(alloc_->SetEvicted(h));
  }
  const Result<FrameId> first = alloc_->Get(0, kHugeOrder, AllocType::kHuge);
  const Result<FrameId> second = alloc_->Get(0, kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_GE(FrameToHuge(*first), 6u) << "allocator picked an evicted frame "
                                        "while non-evicted ones existed";
  EXPECT_GE(FrameToHuge(*second), 6u);
  // Third allocation must fall back to an evicted frame.
  const Result<FrameId> third = alloc_->Get(0, kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(third.ok());
  EXPECT_LT(FrameToHuge(*third), 6u);
}

TEST_F(LLFreeTest, InstallHandlerInvokedForEvictedAllocations) {
  Init(kFrames16MiB);
  // Evict everything so the allocation must hit an evicted area.
  for (HugeId h = 0; h < 8; ++h) {
    ASSERT_TRUE(alloc_->SetEvicted(h));
  }
  std::vector<HugeId> installs;
  alloc_->SetInstallHandler([&](HugeId huge) {
    installs.push_back(huge);
    ASSERT_TRUE(alloc_->ClearEvicted(huge));
  });
  const Result<FrameId> frame = alloc_->Get(0, 0, AllocType::kMovable);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(installs.size(), 1u);
  EXPECT_EQ(installs[0], FrameToHuge(*frame));
  EXPECT_FALSE(alloc_->ReadArea(installs[0]).evicted);

  // A second allocation from the same (now installed) area: no install.
  const Result<FrameId> frame2 = alloc_->Get(0, 0, AllocType::kMovable);
  ASSERT_TRUE(frame2.ok());
  EXPECT_EQ(FrameToHuge(*frame2), installs[0]);
  EXPECT_EQ(installs.size(), 1u);
}

TEST_F(LLFreeTest, InstallTriggeredForEvictedHugeAllocation) {
  Init(kFrames16MiB);
  for (HugeId h = 0; h < 8; ++h) {
    ASSERT_TRUE(alloc_->SetEvicted(h));
  }
  int installs = 0;
  alloc_->SetInstallHandler([&](HugeId huge) {
    ++installs;
    alloc_->ClearEvicted(huge);
  });
  const Result<FrameId> frame = alloc_->Get(0, kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(installs, 1);
}

TEST_F(LLFreeTest, WithoutHandlerEvictedHintClearsLocally) {
  Init(kFrames16MiB);
  for (HugeId h = 0; h < 8; ++h) {
    ASSERT_TRUE(alloc_->SetEvicted(h));
  }
  const Result<FrameId> frame = alloc_->Get(0, 0, AllocType::kMovable);
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(alloc_->ReadArea(FrameToHuge(*frame)).evicted);
}

TEST_F(LLFreeTest, ReclaimSkipsReservedTrees) {
  Init(kFrames16MiB);  // single tree
  // Reserve the only tree by allocating from it.
  ASSERT_TRUE(alloc_->Get(0, 0, AllocType::kMovable).ok());
  EXPECT_TRUE(alloc_->ReadTree(0).reserved);
  EXPECT_FALSE(alloc_->ReclaimHuge(0, /*hard=*/true).has_value());
  EXPECT_TRUE(alloc_->ReclaimHuge(0, /*hard=*/true, /*allow_reserved=*/true)
                  .has_value());
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, ReclaimHonorsStartHint) {
  Init(kFrames64MiB);
  const std::optional<HugeId> huge = alloc_->ReclaimHuge(17, /*hard=*/true);
  ASSERT_TRUE(huge.has_value());
  EXPECT_EQ(*huge, 17u);
}

TEST_F(LLFreeTest, ReclaimWrapsAroundHint) {
  Init(kFrames64MiB);
  // Occupy all areas except area 3 with huge allocations.
  std::vector<FrameId> held;
  for (;;) {
    const Result<FrameId> r = alloc_->Get(0, kHugeOrder, AllocType::kHuge);
    if (!r.ok()) {
      break;
    }
    held.push_back(*r);
  }
  ASSERT_FALSE(held.empty());
  const FrameId released = held.back();
  held.pop_back();
  ASSERT_FALSE(alloc_->Put(released, kHugeOrder).has_value());
  alloc_->DrainReservations();  // make its tree reclaimable
  const std::optional<HugeId> huge =
      alloc_->ReclaimHuge(FrameToHuge(released) + 1, /*hard=*/true);
  ASSERT_TRUE(huge.has_value());
  EXPECT_EQ(*huge, FrameToHuge(released));
}

TEST_F(LLFreeTest, MonitorViewSharesState) {
  Init(kFrames16MiB);
  // The hypervisor's clone over the same state (paper §4.2).
  LLFree monitor(state_.get());
  const std::optional<HugeId> huge = monitor.ReclaimHuge(0, /*hard=*/true);
  ASSERT_TRUE(huge.has_value());
  // The guest view observes the transition immediately.
  EXPECT_TRUE(alloc_->ReadArea(*huge).allocated);
  EXPECT_TRUE(alloc_->ReadArea(*huge).evicted);
  EXPECT_EQ(alloc_->FreeFrames(), kFrames16MiB - kFramesPerHuge);
  // And vice versa: guest allocations are visible to the monitor.
  const Result<FrameId> frame = alloc_->Get(0, kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(monitor.ReadArea(FrameToHuge(*frame)).allocated);
}

// ---------------------------------------------------------------------
// Counters and fragmentation behaviour
// ---------------------------------------------------------------------

TEST_F(LLFreeTest, UsedHugeAreasTracksPartialUse) {
  Init(kFrames64MiB);
  EXPECT_EQ(alloc_->UsedHugeAreas(), 0u);
  const Result<FrameId> f = alloc_->Get(0, 0, AllocType::kMovable);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(alloc_->UsedHugeAreas(), 1u);  // one area partially used
  const std::optional<HugeId> reclaimed =
      alloc_->ReclaimHuge(FrameToHuge(*f) + 1, /*hard=*/true,
                          /*allow_reserved=*/true);
  ASSERT_TRUE(reclaimed.has_value());
  // Hard-reclaimed areas are not "used by the guest".
  EXPECT_EQ(alloc_->UsedHugeAreas(), 1u);
}

TEST_F(LLFreeTest, CompactAllocationKeepsHugeFramesAvailable) {
  // LLFree's hallmark (vs buddy): small allocations are packed into few
  // areas, keeping the other huge frames fully free.
  Init(kFrames64MiB);
  std::vector<FrameId> frames;
  for (int i = 0; i < 1000; ++i) {
    const Result<FrameId> r = alloc_->Get(0, 0, AllocType::kMovable);
    ASSERT_TRUE(r.ok());
    frames.push_back(*r);
  }
  // 1000 frames fit into ceil(1000/512)=2 areas when perfectly packed.
  EXPECT_LE(alloc_->UsedHugeAreas(), 2u);
  EXPECT_GE(alloc_->FreeHugeFrames(), 30u);
}

TEST_F(LLFreeTest, TypeSeparationAvoidsHugeFragmentation) {
  // Mixed-lifetime allocations of different types must not share trees,
  // so freeing the short-lived type releases whole huge frames (§4.2).
  Init(kFrames256MiB);
  std::vector<FrameId> kernel;   // long-lived unmovable
  std::vector<FrameId> user;     // short-lived movable
  Rng rng(99);
  for (int i = 0; i < 4000; ++i) {
    const AllocType type =
        (i % 8 == 0) ? AllocType::kUnmovable : AllocType::kMovable;
    const Result<FrameId> r = alloc_->Get(0, 0, type);
    ASSERT_TRUE(r.ok());
    (type == AllocType::kUnmovable ? kernel : user).push_back(*r);
  }
  for (const FrameId f : user) {
    ASSERT_FALSE(alloc_->Put(f, 0).has_value());
  }
  // All user frames gone; only the 500 kernel frames remain. They should
  // be packed into very few areas, leaving nearly everything huge-free.
  const uint64_t used = alloc_->UsedHugeAreas();
  EXPECT_LE(used, 4u) << "kernel allocations should be segregated";
  EXPECT_GE(alloc_->FreeHugeFrames(), alloc_->num_areas() - 4);
  EXPECT_TRUE(alloc_->Validate());
}

// ---------------------------------------------------------------------
// Crash recovery (persistence support)
// ---------------------------------------------------------------------

TEST_F(LLFreeTest, RecoverOnCleanStateIsNoop) {
  Init(kFrames64MiB);
  ASSERT_TRUE(alloc_->Get(0, 0, AllocType::kMovable).ok());
  alloc_->DrainReservations();
  EXPECT_EQ(alloc_->Recover(), 0u);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, RecoverRebuildsCorruptedCounters) {
  Init(kFrames64MiB);
  std::vector<FrameId> held;
  for (int i = 0; i < 700; ++i) {
    const Result<FrameId> r = alloc_->Get(0, 0, AllocType::kMovable);
    ASSERT_TRUE(r.ok());
    held.push_back(*r);
  }
  const Result<FrameId> huge = alloc_->Get(0, kHugeOrder, AllocType::kHuge);
  ASSERT_TRUE(huge.ok());
  const uint64_t free_before = alloc_->FreeFrames();

  // Crash: scribble over the cached counters (the bit field and the
  // allocated flags are the durable truth).
  llfree::AreaEntry bogus;
  bogus.free = 7;
  state_->areas()[0].store(bogus.Pack(), std::memory_order_relaxed);
  state_->trees()[1].store(llfree::TreeEntry{}.Pack(),
                           std::memory_order_relaxed);
  EXPECT_FALSE(alloc_->Validate());

  EXPECT_GT(alloc_->Recover(), 0u);
  EXPECT_TRUE(alloc_->Validate());
  EXPECT_EQ(alloc_->FreeFrames(), free_before);

  // The allocator is fully usable again: free everything and re-check.
  for (const FrameId f : held) {
    ASSERT_FALSE(alloc_->Put(f, 0).has_value());
  }
  ASSERT_FALSE(alloc_->Put(*huge, kHugeOrder).has_value());
  EXPECT_EQ(alloc_->FreeFrames(), kFrames64MiB);
}

TEST_F(LLFreeTest, RecoverPreservesEvictedHintsAndHugeAllocations) {
  Init(kFrames64MiB);
  ASSERT_TRUE(alloc_->SetEvicted(3));
  const std::optional<HugeId> hard = alloc_->ReclaimHuge(5, /*hard=*/true);
  ASSERT_TRUE(hard.has_value());
  // Corrupt the hard-reclaimed area's counter (A must survive recovery).
  llfree::AreaEntry corrupt = alloc_->ReadArea(*hard);
  corrupt.free = 100;
  state_->areas()[*hard].store(corrupt.Pack(), std::memory_order_relaxed);

  alloc_->Recover();
  EXPECT_TRUE(alloc_->ReadArea(3).evicted);
  EXPECT_TRUE(alloc_->ReadArea(*hard).allocated);
  EXPECT_TRUE(alloc_->ReadArea(*hard).evicted);
  EXPECT_EQ(alloc_->ReadArea(*hard).free, 0u);
  EXPECT_TRUE(alloc_->Validate());
}

TEST_F(LLFreeTest, RecoverAfterCrashMidChurn) {
  // Random workload, then a simulated crash leaves reservations dangling
  // and some counters stale; Recover must restore full consistency.
  Init(kFrames256MiB);
  Rng rng(31);
  std::vector<std::pair<FrameId, unsigned>> live;
  for (int i = 0; i < 5000; ++i) {
    if (rng.Chance(0.6)) {
      const unsigned order = rng.Chance(0.2) ? kHugeOrder : 0;
      const Result<FrameId> r = alloc_->Get(0, order, AllocType::kMovable);
      if (r.ok()) {
        live.emplace_back(*r, order);
      }
    } else if (!live.empty()) {
      const size_t idx = rng.Below(live.size());
      ASSERT_FALSE(
          alloc_->Put(live[idx].first, live[idx].second).has_value());
      live[idx] = live.back();
      live.pop_back();
    }
  }
  // "Crash": clobber a few tree entries (reservations stay dangling).
  for (uint64_t t = 0; t < alloc_->num_trees(); t += 3) {
    llfree::TreeEntry bogus;
    bogus.free = 1;
    bogus.reserved = true;
    state_->trees()[t].store(bogus.Pack(), std::memory_order_relaxed);
  }
  alloc_->Recover();
  EXPECT_TRUE(alloc_->Validate());
  for (const auto& [frame, order] : live) {
    ASSERT_FALSE(alloc_->Put(frame, order).has_value());
  }
  EXPECT_EQ(alloc_->FreeFrames(), kFrames256MiB);
  EXPECT_TRUE(alloc_->Validate());
}

// ---------------------------------------------------------------------
// Randomized property tests
// ---------------------------------------------------------------------

struct PropertyParam {
  Config::ReservationMode mode;
  unsigned areas_per_tree;
  const char* name;
};

class LLFreePropertyTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(LLFreePropertyTest, RandomOpsPreserveInvariants) {
  Config config;
  config.mode = GetParam().mode;
  config.cores = 4;
  config.areas_per_tree = GetParam().areas_per_tree;
  SharedState state(kFrames64MiB, config);
  LLFree alloc(&state);

  Rng rng(2024);
  // (frame, order) of live allocations.
  std::vector<std::pair<FrameId, unsigned>> live;
  std::vector<HugeId> hard_reclaimed;
  uint64_t allocated_frames = 0;

  for (int step = 0; step < 20000; ++step) {
    const unsigned core = static_cast<unsigned>(rng.Below(4));
    const uint64_t dice = rng.Below(100);
    if (dice < 45) {  // allocate
      static constexpr unsigned kOrders[] = {0, 0, 0, 1, 2, 3, 6, 9};
      const unsigned order = kOrders[rng.Below(8)];
      const AllocType type = static_cast<AllocType>(rng.Below(3));
      const Result<FrameId> r = alloc.Get(core, order, type);
      if (r.ok()) {
        live.emplace_back(*r, order);
        allocated_frames += 1ull << order;
      }
    } else if (dice < 85) {  // free
      if (!live.empty()) {
        const size_t idx = rng.Below(live.size());
        const auto [frame, order] = live[idx];
        live[idx] = live.back();
        live.pop_back();
        ASSERT_FALSE(alloc.Put(frame, order).has_value());
        allocated_frames -= 1ull << order;
      }
    } else if (dice < 92) {  // hypervisor reclaim
      const bool hard = rng.Chance(0.5);
      const std::optional<HugeId> h =
          alloc.ReclaimHuge(rng.Below(alloc.num_areas()), hard);
      if (h.has_value() && hard) {
        hard_reclaimed.push_back(*h);
      }
    } else if (dice < 97) {  // hypervisor return
      if (!hard_reclaimed.empty()) {
        const size_t idx = rng.Below(hard_reclaimed.size());
        ASSERT_TRUE(alloc.MarkReturned(hard_reclaimed[idx]));
        hard_reclaimed[idx] = hard_reclaimed.back();
        hard_reclaimed.pop_back();
      }
    } else {  // install
      for (uint64_t a = 0; a < alloc.num_areas(); ++a) {
        const AreaEntry e = alloc.ReadArea(a);
        if (e.evicted && !e.allocated) {
          alloc.ClearEvicted(a);
          break;
        }
      }
    }
  }

  // Invariants at quiescence.
  ASSERT_TRUE(alloc.Validate());
  const uint64_t reclaimed_frames = hard_reclaimed.size() * kFramesPerHuge;
  EXPECT_EQ(alloc.FreeFrames(),
            kFrames64MiB - allocated_frames - reclaimed_frames);

  // Free everything; memory must be fully recovered.
  for (const auto& [frame, order] : live) {
    ASSERT_FALSE(alloc.Put(frame, order).has_value());
  }
  for (const HugeId h : hard_reclaimed) {
    ASSERT_TRUE(alloc.MarkReturned(h));
  }
  EXPECT_EQ(alloc.FreeFrames(), kFrames64MiB);
  EXPECT_TRUE(alloc.Validate());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LLFreePropertyTest,
    ::testing::Values(
        PropertyParam{Config::ReservationMode::kPerType, 8, "per_type_8"},
        PropertyParam{Config::ReservationMode::kPerType, 32, "per_type_32"},
        PropertyParam{Config::ReservationMode::kPerCore, 8, "per_core_8"},
        PropertyParam{Config::ReservationMode::kPerCore, 32, "per_core_32"}),
    [](const ::testing::TestParamInfo<PropertyParam>& param_info) {
      return param_info.param.name;
    });

// ---------------------------------------------------------------------
// Differential test of the tree search (ReserveNewTree)
// ---------------------------------------------------------------------

// The five-pass search as it was before the single walk: one full pass
// over the tree index per preference level, from the hint. Read-only: it
// returns the tree the search would try to reserve first.
std::optional<uint64_t> ReferencePick(const std::vector<TreeEntry>& trees,
                                      const std::vector<uint32_t>& caps,
                                      uint64_t hint, AllocType type,
                                      unsigned need,
                                      std::optional<uint64_t> avoid) {
  const uint64_t n = trees.size();
  const auto compatible = [type](AllocType other) {
    return other == type || (other != AllocType::kUnmovable &&
                             type != AllocType::kUnmovable);
  };
  for (int pass = 0; pass < 5; ++pass) {
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t t = (hint + i) % n;
      if (avoid.has_value() && t == *avoid && pass < 4) {
        continue;
      }
      const uint32_t cap = caps[t];
      const TreeEntry& entry = trees[t];
      if (entry.reserved || entry.free < need) {
        continue;
      }
      bool eligible = false;
      switch (pass) {
        case 0:
          eligible = entry.type == type && entry.free < cap - cap / 8;
          break;
        case 1:
          eligible = compatible(entry.type) && entry.free < cap;
          break;
        case 2:
          eligible = entry.free == cap;
          break;
        case 3:
          eligible = entry.free < cap;
          break;
        default:
          eligible = true;
          break;
      }
      if (eligible) {
        return t;
      }
    }
  }
  return std::nullopt;
}

// Seeded random tree-index states, each searched once through `Get` on a
// drained slot: the tree the slot ends up reserving must be the one the
// reference picks, and the slot must stay unreserved exactly when the
// reference finds nothing. In a quarter of the states the picked tree is
// a "liar" (its counter promises frames its areas do not have), so the
// claim comes up short and the search runs again with that tree as
// `avoid` and the hint moved onto it.
TEST(LLFreeSearchTest, SingleWalkPicksLikeFivePasses) {
  Rng rng(21);
  int refusals = 0;
  int liars = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    Config config;
    const bool per_core = rng.Chance(0.25);
    if (per_core) {
      config = PerCoreConfig(2);
    }
    // 1..10 whole trees plus an optional shorter last tree.
    const uint64_t whole = rng.Range(1, 10);
    const uint64_t rest = rng.Below(config.areas_per_tree);
    const uint64_t areas = whole * config.areas_per_tree + rest;
    SharedState state(areas * kFramesPerHuge, config);
    LLFree alloc(&state);
    const uint64_t n = alloc.num_trees();

    const unsigned order = rng.Chance(0.5) ? 0 : kHugeOrder;
    const unsigned need = 1u << order;
    const unsigned core = static_cast<unsigned>(rng.Below(2));
    AllocType type = static_cast<AllocType>(rng.Below(kNumAllocTypes));
    // ClaimRuns' own mapping of the request onto a slot and a type.
    if (order == kHugeOrder && !per_core) {
      type = AllocType::kHuge;
    }
    const unsigned slot = per_core ? core : static_cast<unsigned>(type);

    // Nearly full states: every tree short of `need` or reserved.
    const bool nearly_full = rng.Chance(0.25);
    std::vector<TreeEntry> trees(n);
    std::vector<uint32_t> caps(n);
    for (uint64_t t = 0; t < n; ++t) {
      const uint32_t cap = static_cast<uint32_t>(alloc.TreeCapacity(t));
      caps[t] = cap;
      TreeEntry& entry = trees[t];
      entry.type = static_cast<AllocType>(rng.Below(kNumAllocTypes));
      entry.reserved = rng.Chance(0.2);
      if (nearly_full) {
        entry.free = rng.Chance(0.5) ? 0 : need - 1;
        if (rng.Chance(0.1)) {
          entry.free = cap;  // the odd tree that still has room
        }
      } else {
        const uint32_t picks[] = {0,           cap,
                                  cap - cap / 8, cap - cap / 8 - 1,
                                  need - 1,    need,
                                  static_cast<uint32_t>(rng.Range(0, cap))};
        entry.free = picks[rng.Below(std::size(picks))];
      }
      state.trees()[t].store(entry.Pack(), std::memory_order_relaxed);
    }
    // Hints may be out of range (written by a view over a larger index).
    const uint64_t hint = rng.Below(2 * n + 2);
    state.tree_hints()[slot].store(hint, std::memory_order_relaxed);
    ASSERT_FALSE(alloc.ReadReservation(slot).active);

    const std::optional<uint64_t> pick =
        ReferencePick(trees, caps, hint % n, type, need, std::nullopt);
    std::optional<uint64_t> expected = pick;
    if (pick.has_value() && rng.Chance(0.25)) {
      // Make the pick a liar: its areas are all huge-allocated.
      ++liars;
      for (uint64_t a = *pick * config.areas_per_tree;
           a < std::min(areas, (*pick + 1) * config.areas_per_tree); ++a) {
        AreaEntry full;
        full.allocated = true;
        state.areas()[a].store(full.Pack(), std::memory_order_relaxed);
      }
      TreeEntry& claimed = trees[*pick];
      claimed.free = 0;
      claimed.reserved = true;
      claimed.type = type;
      expected = ReferencePick(trees, caps, *pick, type, need, *pick)
                     .value_or(*pick);
    }

    (void)alloc.Get(core, order, type);
    const Reservation r = alloc.ReadReservation(slot);
    SCOPED_TRACE(::testing::Message()
                 << "iter " << iter << " trees " << n << " hint " << hint
                 << " order " << order << " slot " << slot);
    if (!expected.has_value()) {
      ++refusals;
      EXPECT_FALSE(r.active);
    } else {
      ASSERT_TRUE(r.active);
      EXPECT_EQ(r.tree, *expected);
    }
  }
  // The seeded mix covers both refusals and the avoid path.
  EXPECT_GT(refusals, 100);
  EXPECT_GT(liars, 100);
}

// ---------------------------------------------------------------------
// Differential test of the tree-occupancy summary
// ---------------------------------------------------------------------

bool SummaryBit(const SharedState& state, uint64_t tree) {
  return (state.tree_summary()[tree / 64].load(std::memory_order_relaxed) >>
          (tree % 64) & 1) != 0;
}

// Seeded op sequences on zones of 1..200 trees (so the summary spans up
// to four words), run in lockstep on two allocators: one with the
// summary as the searches leave it, one whose summary is reset to all
// set before every op. Each zone is first filled with huge frames, so
// failing searches (ReserveNewTree and GetFallback alike) are common;
// then Gets, batches, Puts, hard reclaims, MarkReturned, drains,
// compaction claims and raw tree-entry stores interleave. Every result
// and every tree and reservation entry must match, and after every op
// each tree with frames on its counter must have its bit set.
TEST(LLFreeSearchTest, SummarySkipsPickLikeFullWalks) {
  Rng rng(24);
  uint64_t skipped = 0;  // trees whose bit was clear when an op began
  uint64_t failed_gets = 0;
  for (int iter = 0; iter < 120; ++iter) {
    Config config;
    if (rng.Chance(0.25)) {
      config = PerCoreConfig(2);
    }
    config.areas_per_tree = rng.Chance(0.5) ? 1 : static_cast<unsigned>(
                                                       rng.Range(2, 4));
    const uint64_t trees = rng.Range(1, 200);
    const uint64_t areas =
        trees * config.areas_per_tree - rng.Below(config.areas_per_tree);
    SharedState state_a(areas * kFramesPerHuge, config);
    SharedState state_b(areas * kFramesPerHuge, config);
    LLFree a(&state_a);
    LLFree b(&state_b);
    ASSERT_EQ(a.num_trees(), trees);

    std::vector<std::pair<FrameId, unsigned>> held;
    std::vector<HugeId> hard;
    const auto get = [&](unsigned core, unsigned order, AllocType type) {
      state_b.MarkEveryTreeOccupied();
      const Result<FrameId> ra = a.Get(core, order, type);
      const Result<FrameId> rb = b.Get(core, order, type);
      EXPECT_EQ(ra.ok(), rb.ok());
      if (ra.ok() && rb.ok()) {
        EXPECT_EQ(*ra, *rb);
        held.emplace_back(*ra, order);
      } else if (!ra.ok() && !rb.ok()) {
        EXPECT_EQ(ra.error(), rb.error());
        ++failed_gets;
      }
      return ra.ok();
    };
    // Fill with huge frames until the zone refuses one.
    while (get(0, kHugeOrder, AllocType::kHuge)) {
    }
    for (int step = 0; step < 200; ++step) {
      SCOPED_TRACE(::testing::Message()
                   << "iter " << iter << " trees " << trees << " step "
                   << step);
      for (uint64_t t = 0; t < trees; ++t) {
        skipped += SummaryBit(state_a, t) ? 0 : 1;
      }
      state_b.MarkEveryTreeOccupied();
      const unsigned core = static_cast<unsigned>(rng.Below(2));
      const uint64_t op = rng.Below(100);
      if (op < 35) {
        const unsigned orders[] = {0, 0, 0, 3, kHugeOrder};
        get(core, orders[rng.Below(std::size(orders))],
            static_cast<AllocType>(rng.Below(kNumAllocTypes)));
      } else if (op < 45) {
        // A batch on one side, as many single Gets on the other.
        const unsigned order = rng.Chance(0.8) ? 0 : 2;
        const auto count = static_cast<unsigned>(rng.Range(1, 40));
        const auto type = static_cast<AllocType>(rng.Below(kNumAllocTypes));
        std::vector<FrameId> batch;
        const unsigned got = a.GetBatch(core, order, count, type, &batch);
        std::vector<FrameId> singles;
        for (unsigned i = 0; i < count; ++i) {
          const Result<FrameId> r = b.Get(core, order, type);
          if (!r.ok()) {
            break;
          }
          singles.push_back(*r);
        }
        EXPECT_EQ(got, batch.size());
        EXPECT_EQ(batch, singles);
        failed_gets += got < count ? 1 : 0;
        for (const FrameId f : batch) {
          held.emplace_back(f, order);
        }
      } else if (op < 72 && !held.empty()) {
        const size_t i = rng.Below(held.size());
        EXPECT_EQ(a.Put(held[i].first, held[i].second),
                  b.Put(held[i].first, held[i].second));
        held[i] = held.back();
        held.pop_back();
      } else if (op < 78) {
        const HugeId start = rng.Below(areas);
        const bool reserved = rng.Chance(0.5);
        const std::optional<HugeId> ha = a.ReclaimHuge(start, true, reserved);
        EXPECT_EQ(ha, b.ReclaimHuge(start, true, reserved));
        if (ha.has_value()) {
          hard.push_back(*ha);
        }
      } else if (op < 86 && !hard.empty()) {
        const size_t i = rng.Below(hard.size());
        EXPECT_TRUE(a.MarkReturned(hard[i]));
        EXPECT_TRUE(b.MarkReturned(hard[i]));
        hard[i] = hard.back();
        hard.pop_back();
      } else if (op < 90) {
        a.DrainReservations();
        b.DrainReservations();
      } else if (op < 94) {
        const HugeId area = rng.Below(areas);
        std::vector<FrameId> fa;
        std::vector<FrameId> fb;
        EXPECT_EQ(a.ClaimFreeInArea(area, &fa), b.ClaimFreeInArea(area, &fb));
        EXPECT_EQ(fa, fb);
        for (const FrameId f : fa) {
          held.emplace_back(f, 0);
        }
      } else {
        // A raw store that hides some of an unreserved tree's frames
        // and re-types it. A writer that leaves frames on the counter
        // sets the tree's bit.
        const uint64_t t = rng.Below(trees);
        TreeEntry entry = a.ReadTree(t);
        if (!entry.reserved) {
          entry.free = static_cast<uint32_t>(rng.Range(0, entry.free));
          entry.type = static_cast<AllocType>(rng.Below(kNumAllocTypes));
          state_a.trees()[t].store(entry.Pack(), std::memory_order_relaxed);
          state_b.trees()[t].store(entry.Pack(), std::memory_order_relaxed);
          if (entry.free != 0) {
            state_a.tree_summary()[t / 64].fetch_or(
                1ull << (t % 64), std::memory_order_relaxed);
          }
        }
      }
      for (uint64_t t = 0; t < trees; ++t) {
        const TreeEntry ta = a.ReadTree(t);
        ASSERT_EQ(ta, b.ReadTree(t)) << "tree " << t;
        ASSERT_TRUE(ta.free == 0 || SummaryBit(state_a, t))
            << "tree " << t << " holds " << ta.free
            << " frames behind a clear bit";
      }
      for (unsigned slot = 0; slot < config.NumSlots(); ++slot) {
        ASSERT_EQ(a.ReadReservation(slot), b.ReadReservation(slot))
            << "slot " << slot;
      }
    }
  }
  // The mix reaches full zones, and the summary then skips trees.
  EXPECT_GT(failed_gets, 400u);
  EXPECT_GT(skipped, 1000000u);
}

}  // namespace
}  // namespace hyperalloc::llfree

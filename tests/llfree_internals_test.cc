// White-box tests for the LLFree building blocks: the per-area bit field
// and the packed area/tree/reservation entries (paper §4.1 layouts), plus
// the per-slot tree search hints.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <optional>
#include <set>

#include "src/llfree/bitfield.h"
#include "src/llfree/entries.h"
#include "src/llfree/llfree.h"

namespace hyperalloc::llfree {
namespace {

class AreaBitsTest : public ::testing::Test {
 protected:
  AreaBitsTest() : bits_(words_.data()) {
    for (auto& word : words_) {
      word.store(0);
    }
  }

  // Claims one run through the batch entry point.
  std::optional<unsigned> SetOne(unsigned order) {
    unsigned offset = 0;
    if (bits_.Set(order, 1, &offset) == 0) {
      return std::nullopt;
    }
    return offset;
  }

  std::array<std::atomic<uint64_t>, kWordsPerArea> words_;
  AreaBits bits_;
};

TEST_F(AreaBitsTest, SetFindsFirstFreeRun) {
  const auto a = SetOne(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 0u);
  const auto b = SetOne(0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(bits_.CountSet(), 2u);
}

TEST_F(AreaBitsTest, MultiWordClaimsOneRunPerIteration) {
  // Order-7 runs span two words. With run [128, 256) partly taken, a
  // batch of three skips it and takes the other runs in offset order.
  words_[3].store(1ull << 5);  // frame 197, inside run 1
  unsigned offsets[4];
  ASSERT_EQ(bits_.Set(7, 4, offsets), 3u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 256u);
  EXPECT_EQ(offsets[2], 384u);
  // The blocked run's first word was rolled back, not left claimed.
  EXPECT_EQ(words_[2].load(), 0u);
  EXPECT_EQ(bits_.CountSet(), 3u * 128u + 1u);
  EXPECT_EQ(bits_.Set(8, 1, offsets), 0u);
}

TEST_F(AreaBitsTest, AlignedRunsPerOrder) {
  for (unsigned order = 0; order <= kMaxBitfieldOrder; ++order) {
    for (auto& word : words_) {
      word.store(0);
    }
    std::set<unsigned> offsets;
    for (;;) {
      const auto offset = SetOne(order);
      if (!offset.has_value()) {
        break;
      }
      EXPECT_EQ(*offset % (1u << order), 0u) << "order " << order;
      EXPECT_TRUE(offsets.insert(*offset).second) << "duplicate offset";
    }
    EXPECT_EQ(offsets.size(), kFramesPerHuge >> order) << "order " << order;
    EXPECT_EQ(bits_.CountSet(), kFramesPerHuge);
  }
}

TEST_F(AreaBitsTest, SetSkipsOccupiedRuns) {
  // Occupy bit 1: no order-1 run fits in [0,2), next run is [2,4).
  ASSERT_TRUE(SetOne(0).has_value());  // bit 0
  ASSERT_TRUE(SetOne(0).has_value());  // bit 1
  const auto run = SetOne(1);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(*run, 2u);
}

TEST_F(AreaBitsTest, ClearDetectsDoubleFree) {
  const auto offset = SetOne(3);
  ASSERT_TRUE(offset.has_value());
  EXPECT_TRUE(bits_.Clear(*offset, 3));
  EXPECT_FALSE(bits_.Clear(*offset, 3)) << "double free must fail";
  EXPECT_EQ(bits_.CountSet(), 0u);
}

TEST_F(AreaBitsTest, PartialClearRejected) {
  ASSERT_TRUE(SetOne(2).has_value());  // bits 0..3
  ASSERT_TRUE(bits_.Clear(0, 2));
  // Clearing again at a different order over the now-free range fails.
  EXPECT_FALSE(bits_.Clear(0, 1));
}

TEST_F(AreaBitsTest, IsFreeChecksWholeRun) {
  ASSERT_TRUE(SetOne(0).has_value());  // bit 0
  EXPECT_FALSE(bits_.IsFree(0, 0));
  EXPECT_FALSE(bits_.IsFree(0, 2));  // run [0,4) contains bit 0
  EXPECT_TRUE(bits_.IsFree(4, 2));
}

TEST_F(AreaBitsTest, FillAllMarksEverything) {
  bits_.FillAll();
  EXPECT_EQ(bits_.CountSet(), kFramesPerHuge);
  EXPECT_FALSE(SetOne(0).has_value());
}

TEST_F(AreaBitsTest, SetBatchClaimsWordAtATime) {
  unsigned offsets[kFramesPerHuge];
  const unsigned got = bits_.Set(0, 70, offsets);
  ASSERT_EQ(got, 70u);
  for (unsigned i = 0; i < got; ++i) {
    EXPECT_EQ(offsets[i], i);
  }
  EXPECT_EQ(bits_.CountSet(), 70u);
}

TEST_F(AreaBitsTest, SetBatchSkipsOccupiedAndAligns) {
  words_[0].store(1ull << 1);  // occupy bit 1
  unsigned offsets[8];
  const unsigned got = bits_.Set(1, 3, offsets);
  ASSERT_EQ(got, 3u);
  EXPECT_EQ(offsets[0], 2u);  // pair [0,2) blocked by bit 1
  EXPECT_EQ(offsets[1], 4u);
  EXPECT_EQ(offsets[2], 6u);
}

TEST_F(AreaBitsTest, SetBatchStopsWhenFull) {
  bits_.FillAll();
  ASSERT_TRUE(bits_.Clear(17, 0));
  unsigned offsets[8];
  const unsigned got = bits_.Set(0, 8, offsets);
  ASSERT_EQ(got, 1u);
  EXPECT_EQ(offsets[0], 17u);
}

TEST_F(AreaBitsTest, ClearMaskRoundTripAndDoubleFree) {
  unsigned offsets[64];
  ASSERT_EQ(bits_.Set(0, 64, offsets), 64u);
  EXPECT_TRUE(bits_.ClearMask(0, ~0ull));
  EXPECT_FALSE(bits_.ClearMask(0, ~0ull)) << "double free must fail";
  EXPECT_EQ(bits_.CountSet(), 0u);
}

TEST_F(AreaBitsTest, ClearMaskRejectsPartiallyFreeWord) {
  unsigned offsets[4];
  ASSERT_EQ(bits_.Set(0, 4, offsets), 4u);
  // Mask covers one free bit: the whole clear must be rejected and the
  // four set bits left intact (all-or-nothing, like Clear).
  EXPECT_FALSE(bits_.ClearMask(0, 0x1full));
  EXPECT_EQ(bits_.CountSet(), 4u);
}

TEST(AreaEntry, PackUnpackRoundTrip) {
  for (uint16_t free : {0u, 1u, 511u, 512u}) {
    for (const bool allocated : {false, true}) {
      for (const bool evicted : {false, true}) {
        AreaEntry entry;
        entry.free = free;
        entry.allocated = allocated;
        entry.evicted = evicted;
        EXPECT_EQ(AreaEntry::Unpack(entry.Pack()), entry);
      }
    }
  }
}

TEST(AreaEntry, SixteenBitsSuffice) {
  AreaEntry entry;
  entry.free = 512;
  entry.allocated = true;
  entry.evicted = true;
  // The paper's layout: 10-bit counter + A + E fit in 12 of 16 bits.
  EXPECT_LT(entry.Pack(), 1u << 12);
}

TEST(AreaEntry, IsFreeHugeSemantics) {
  AreaEntry entry;
  entry.free = 512;
  EXPECT_TRUE(entry.IsFreeHuge());
  entry.allocated = true;
  EXPECT_FALSE(entry.IsFreeHuge());
  entry.allocated = false;
  entry.free = 511;
  EXPECT_FALSE(entry.IsFreeHuge());
  // Evicted does not affect huge-freeness (it is a hint).
  entry.free = 512;
  entry.evicted = true;
  EXPECT_TRUE(entry.IsFreeHuge());
}

TEST(TreeEntry, PackUnpackRoundTrip) {
  for (uint32_t free : {0u, 4096u, 16384u, 65535u}) {
    for (const bool reserved : {false, true}) {
      for (const AllocType type :
           {AllocType::kUnmovable, AllocType::kMovable, AllocType::kHuge}) {
        TreeEntry entry;
        entry.free = free;
        entry.reserved = reserved;
        entry.type = type;
        EXPECT_EQ(TreeEntry::Unpack(entry.Pack()), entry);
      }
    }
  }
}

TEST(SharedStateDeathTest, RefusesTreesBeyondSixteenBitCounters) {
  // 127 areas (65024 frames) still fit the 16-bit tree and reservation
  // counters; 128 areas (65536 frames) would overflow them.
  Config config;
  config.areas_per_tree = 127;
  SharedState fits(127 * kFramesPerHuge, config);
  EXPECT_EQ(LLFree(&fits).ReadTree(0).free, 127 * kFramesPerHuge);
  config.areas_per_tree = 128;
  EXPECT_DEATH(SharedState(128 * kFramesPerHuge, config), "check failed");
}

TEST(Reservation, PackUnpackRoundTrip) {
  Reservation r;
  r.active = true;
  r.tree = 0xdeadbeu;
  r.free = 4096;
  EXPECT_EQ(Reservation::Unpack(r.Pack()), r);
  EXPECT_EQ(Reservation::Unpack(Reservation{}.Pack()), Reservation{});
}

TEST(TreeHints, InitialHintsAreInRange) {
  // More slots than trees: the initial spread must still land in-range.
  Config config;
  config.mode = Config::ReservationMode::kPerType;  // 3 slots
  config.areas_per_tree = 8;
  SharedState state(2 * config.areas_per_tree * kFramesPerHuge,
                    config);  // 2 trees
  ASSERT_EQ(state.num_trees(), 2u);
  for (unsigned s = 0; s < config.NumSlots(); ++s) {
    EXPECT_LT(state.tree_hints()[s].load(), state.num_trees()) << "slot " << s;
  }
}

TEST(TreeHints, OutOfRangeHintIsToleratedAndReclamped) {
  // A view over a previous, larger shared state may have published a hint
  // beyond the current tree count (tree-count shrink). The allocator must
  // treat it as a biased search start, not an index, and the next
  // reservation must store the hint back in-range.
  Config config;
  config.mode = Config::ReservationMode::kPerType;
  config.areas_per_tree = 8;
  SharedState state(2 * config.areas_per_tree * kFramesPerHuge, config);
  const uint64_t n = state.num_trees();
  for (unsigned s = 0; s < config.NumSlots(); ++s) {
    state.tree_hints()[s].store(n * 1000 + s);  // far out of range
  }
  LLFree llfree(&state);
  const Result<FrameId> frame = llfree.Get(0, 0, AllocType::kMovable);
  ASSERT_TRUE(frame.ok());
  EXPECT_LT(*frame, state.frames());
  // The slot that just reserved a tree re-clamped its hint.
  bool any_reclamped = false;
  for (unsigned s = 0; s < config.NumSlots(); ++s) {
    any_reclamped |= state.tree_hints()[s].load() < n;
  }
  EXPECT_TRUE(any_reclamped);
  EXPECT_TRUE(llfree.Validate());
  EXPECT_FALSE(llfree.Put(*frame, 0).has_value());
}

TEST(AtomicUpdate, RetriesAndAborts) {
  std::atomic<uint16_t> atom{5};
  // Successful update returns the previous value.
  const auto prev = AtomicUpdate(atom, [](uint16_t v) {
    return std::optional<uint16_t>(static_cast<uint16_t>(v + 1));
  });
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(*prev, 5u);
  EXPECT_EQ(atom.load(), 6u);
  // Abort leaves the value untouched.
  const auto aborted = AtomicUpdate(
      atom, [](uint16_t) { return std::optional<uint16_t>(); });
  EXPECT_FALSE(aborted.has_value());
  EXPECT_EQ(atom.load(), 6u);
}

}  // namespace
}  // namespace hyperalloc::llfree

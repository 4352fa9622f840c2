// Unit tests for src/base: types, bitmap, rng, stats, units, result.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/types.h"
#include "src/base/units.h"

namespace hyperalloc {
namespace {

TEST(Types, FrameMath) {
  EXPECT_EQ(kFrameSize, 4096u);
  EXPECT_EQ(kFramesPerHuge, 512u);
  EXPECT_EQ(kHugeSize, 2u * kMiB);
  EXPECT_EQ(FramesForBytes(0), 0u);
  EXPECT_EQ(FramesForBytes(1), 1u);
  EXPECT_EQ(FramesForBytes(kFrameSize), 1u);
  EXPECT_EQ(FramesForBytes(kFrameSize + 1), 2u);
  EXPECT_EQ(FramesForBytes(kGiB), 262144u);
}

TEST(Types, HugeConversions) {
  EXPECT_EQ(HugeToFrame(0), 0u);
  EXPECT_EQ(HugeToFrame(3), 1536u);
  EXPECT_EQ(FrameToHuge(511), 0u);
  EXPECT_EQ(FrameToHuge(512), 1u);
  EXPECT_TRUE(IsHugeAligned(0));
  EXPECT_TRUE(IsHugeAligned(1024));
  EXPECT_FALSE(IsHugeAligned(1));
  EXPECT_FALSE(IsHugeAligned(513));
}

TEST(Types, HugesForFrames) {
  EXPECT_EQ(HugesForFrames(0), 0u);
  EXPECT_EQ(HugesForFrames(1), 1u);
  EXPECT_EQ(HugesForFrames(512), 1u);
  EXPECT_EQ(HugesForFrames(513), 2u);
}

TEST(Types, Alignment) {
  EXPECT_EQ(AlignDown(1023, 512), 512u);
  EXPECT_EQ(AlignUp(1023, 512), 1024u);
  EXPECT_EQ(AlignUp(1024, 512), 1024u);
  EXPECT_EQ(AlignDown(0, 8), 0u);
}

TEST(Bitmap, RangeEdges) {
  struct Case {
    uint64_t first, count;
  };
  // Empty (also at the end of the bitmap), one bit, a whole word, bit 63
  // to bit 0 of the next word, and a range spanning partial edge words
  // around whole middle words.
  const Case cases[] = {{0, 0},  {192, 0}, {0, 1},  {63, 1},  {64, 1},
                        {0, 64}, {64, 64}, {63, 2}, {1, 190}, {0, 192}};
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << c.first << "+" << c.count);
    std::vector<uint64_t> words(3, 0);
    SetBits(words, c.first, c.count);
    EXPECT_EQ(CountBits(words, 0, 192), c.count);
    EXPECT_EQ(CountBits(words, c.first, c.count), c.count);
    for (uint64_t bit = 0; bit < 192; ++bit) {
      const bool in = bit >= c.first && bit < c.first + c.count;
      EXPECT_EQ((words[bit / 64] >> (bit % 64)) & 1, in ? 1u : 0u) << bit;
    }
    // Clearing the range from a full bitmap leaves exactly its complement
    // and reports the range's size.
    std::vector<uint64_t> full(3, ~0ull);
    EXPECT_EQ(ClearBits(full, c.first, c.count), c.count);
    EXPECT_EQ(CountBits(full, 0, 192), 192 - c.count);
    EXPECT_EQ(CountBits(full, c.first, c.count), 0u);
    // Clearing what is already clear reports nothing.
    EXPECT_EQ(ClearBits(full, c.first, c.count), 0u);
  }
}

TEST(Bitmap, CountAndClearSeeOnlySetBits) {
  std::vector<uint64_t> words(2, 0);
  SetBits(words, 60, 8);  // bits 60..67 across the word edge
  EXPECT_EQ(CountBits(words, 0, 62), 2u);
  EXPECT_EQ(CountBits(words, 63, 2), 2u);
  EXPECT_EQ(ClearBits(words, 50, 12), 2u);  // bits 60 and 61
  EXPECT_EQ(CountBits(words, 0, 128), 6u);
  EXPECT_EQ(ClearBits(words, 0, 128), 6u);
  EXPECT_EQ(words[0] | words[1], 0u);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.Below(1), 0u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.Range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Stats, SummaryBasics) {
  const Summary s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.2909944487, 1e-9);
  EXPECT_GT(s.ci95, 0.0);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, SummarySingle) {
  const Summary s = Summarize({5.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);
}

TEST(Stats, Percentiles) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 100.0);
  EXPECT_NEAR(Percentile(v, 0.5), 50.5, 1e-9);
  EXPECT_NEAR(Percentile(v, 0.01), 1.99, 1e-9);
}

TEST(Stats, PercentileUnsortedInput) {
  EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Stats, RunningStatsMatchesSummary) {
  RunningStats rs;
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : v) {
    rs.Add(x);
  }
  const Summary s = Summarize(v);
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_NEAR(rs.mean(), s.mean, 1e-12);
  EXPECT_NEAR(rs.stddev(), s.stddev, 1e-12);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2 * kMiB), "2 MiB");
  EXPECT_EQ(FormatBytes(kGiB + kGiB / 2), "1.50 GiB");
}

TEST(Units, FormatRate) {
  EXPECT_EQ(FormatRate(1024.0 * 1024 * 1024), "1 GiB/s");
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(FormatDuration(500), "500 ns");
  EXPECT_EQ(FormatDuration(1500), "1.50 us");
  EXPECT_EQ(FormatDuration(2'500'000), "2.50 ms");
  EXPECT_EQ(FormatDuration(90'000'000'000ull), "1m30s");
}

TEST(Result, ValueAndError) {
  Result<int> ok(5);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);
  EXPECT_EQ(*ok, 5);

  Result<int> err(AllocError::kNoMemory);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error(), AllocError::kNoMemory);
}

TEST(Result, BoolConversion) {
  Result<int> ok(1);
  Result<int> err(AllocError::kRetry);
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_FALSE(static_cast<bool>(err));
}

TEST(EnumStrings, AllocType) {
  EXPECT_STREQ(ToString(AllocType::kUnmovable), "unmovable");
  EXPECT_STREQ(ToString(AllocType::kMovable), "movable");
  EXPECT_STREQ(ToString(AllocType::kHuge), "huge");
}

TEST(EnumStrings, AllocError) {
  EXPECT_STREQ(ToString(AllocError::kNoMemory), "no-memory");
  EXPECT_STREQ(ToString(AllocError::kRetry), "retry");
  EXPECT_STREQ(ToString(AllocError::kEvicted), "evicted");
  EXPECT_STREQ(ToString(AllocError::kInvalid), "invalid");
}

}  // namespace
}  // namespace hyperalloc

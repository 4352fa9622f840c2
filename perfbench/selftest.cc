// Checks the benchmark's summary helpers on canned inputs. Exits 0 when
// every check holds; prints each failure and exits 1 otherwise.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) {
    v.push_back(static_cast<double>(i));  // n..1, unsorted on purpose
  }
  return v;
}

}  // namespace

int main() {
  using perfbench::FastestMedian;
  using perfbench::Median;
  using perfbench::NsPerHuge;
  using perfbench::TailPercentile;

  Expect(Near(Median({}), 0.0), "median of nothing is 0");
  Expect(Near(Median({3.0, 1.0, 2.0}), 2.0), "odd median");
  Expect(Near(Median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median");

  // Ten samples or fewer leave no percentile with ten beyond it.
  Expect(!TailPercentile(Ramp(10)).has_value(), "tail needs > 10 samples");
  // 11 samples: only the lowest has ten beyond it.
  {
    const auto t = TailPercentile(Ramp(11));
    Expect(t.has_value() && Near(t->value, 1.0) && t->samples == 11,
           "tail of 11 samples is the minimum");
  }
  // 100 samples: p90 (value 90) has exactly ten beyond it.
  {
    const auto t = TailPercentile(Ramp(100));
    Expect(t.has_value() && Near(t->value, 90.0) && Near(t->percentile, 0.9),
           "tail of 100 samples is p90");
  }
  // 5000 samples: the p99 cap binds (4950th value, 50 beyond it).
  {
    const auto t = TailPercentile(Ramp(5000));
    Expect(t.has_value() && Near(t->value, 4950.0) &&
               Near(t->percentile, 0.99),
           "tail of 5000 samples is capped at p99");
  }
  // One huge outlier in 50 samples cannot set the tail.
  {
    std::vector<double> v(49, 1.0);
    v.push_back(1e9);
    const auto t = TailPercentile(v);
    Expect(t.has_value() && Near(t->value, 1.0), "one outlier is ignored");
  }

  // Four values standing for 100 repetitions each: 400 samples, and
  // the rank with ten beyond it (p97.5) falls on the largest value.
  {
    const auto t = TailPercentile(Ramp(4), 10, 0.99, 100);
    Expect(t.has_value() && Near(t->value, 4.0) &&
               Near(t->percentile, 0.975) && t->samples == 400,
           "tail of repeated values");
  }
  Expect(!TailPercentile(Ramp(2), 10, 0.99, 5).has_value(),
         "10 repeated samples have no tail");

  // The fastest quarter of 10 repetitions is 3 (rounded up): 1, 2, 3.
  {
    const std::vector<double> s = {5, 1, 9, 3, 7, 2, 8, 4, 10, 6};
    Expect(Near(FastestMedian(s, 0.25), 2.0), "median of fastest quarter");
    Expect(Near(FastestMedian(s, 0.1), 1.0), "fastest tenth of 10 is one");
    Expect(Near(FastestMedian(s, 1.0), 5.5), "share 1 is the median");
  }
  Expect(Near(FastestMedian({4.0, 3.0}, 0.1), 3.0),
         "at least one repetition is kept");
  Expect(Near(FastestMedian({}, 0.25), 0.0), "no repetitions: 0");

  Expect(!NsPerHuge(1000, 0).has_value(), "no frames: no ratio");
  Expect(Near(*NsPerHuge(3880, 10), 388.0), "ns per huge frame");
  Expect(Near(*NsPerHuge(1, 3), 1.0 / 3.0), "fractional ratio");

  if (failures == 0) {
    std::printf("selftest: all checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}

// Summary statistics the benchmark reports: medians, the median of the
// fastest share of repeated work, a tail percentile that needs enough
// samples beyond it to mean anything, and the host-ns-per-huge-frame
// ratio. Header-only so the self-test can check them on canned inputs
// without the simulator.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// Median of a sample (mean of the two middle values for an even count);
// 0 for an empty sample.
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  return (upper + *std::max_element(values.begin(), values.begin() + mid)) /
         2.0;
}

struct Tail {
  double value = 0.0;
  // The nearest-rank percentile actually reported, in (0, 1].
  double percentile = 0.0;
  size_t samples = 0;
};

// The highest nearest-rank percentile, capped at `cap`, that still has
// at least `min_beyond` samples above it — so one preempted request on
// a shared host cannot set the tail by itself. Every value counts as
// `copies` samples, as when it stands for a request repeated once per
// unit. Empty when the sample is too small to have such a percentile.
inline std::optional<Tail> TailPercentile(std::vector<double> values,
                                          size_t min_beyond = 10,
                                          double cap = 0.99,
                                          size_t copies = 1) {
  const size_t n = values.size() * copies;
  if (n <= min_beyond) {
    return std::nullopt;
  }
  const auto capped = static_cast<size_t>(
      std::ceil(cap * static_cast<double>(n) - 1e-9));
  const size_t rank = std::min(capped == 0 ? 0 : capped - 1, n - 1 - min_beyond);
  const auto at = values.begin() + static_cast<std::ptrdiff_t>(rank / copies);
  std::nth_element(values.begin(), at, values.end());
  return Tail{*at, static_cast<double>(rank + 1) / static_cast<double>(n), n};
}

// Median of the fastest `share` (at least one) of a part's repetitions;
// 0 for none. Every repetition does the same work, so the fastest are
// the ones other tenants of a shared host slowed least, and a run that
// spends most of its time in a slow phase of the host still has some.
inline double FastestMedian(std::vector<double> repetitions, double share) {
  std::sort(repetitions.begin(), repetitions.end());
  const auto keep = static_cast<size_t>(
      std::ceil(share * static_cast<double>(repetitions.size()) - 1e-9));
  repetitions.resize(
      std::min(repetitions.size(), std::max<size_t>(keep, 1)));
  return Median(std::move(repetitions));
}

// Host ns per 2 MiB frame; empty when no frame moved (the ratio has no
// base and must not be reported as 0).
inline std::optional<double> NsPerHuge(double host_ns, uint64_t huge) {
  if (huge == 0) {
    return std::nullopt;
  }
  return host_ns / static_cast<double>(huge);
}

}  // namespace perfbench

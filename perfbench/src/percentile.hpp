/// \file percentile.hpp
/// \brief Percentiles with a sample-count rule: a percentile is reported
///        only when at least ten samples lie beyond it, so a tail figure is
///        never read off a handful of outliers. The value is the mean of
///        the samples ranked near the percentile, so latencies quantized to
///        whole nanoseconds still read with all their digits.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// One percentile read off a sample set.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< Size of the sample set.
  std::size_t beyond = 0;   ///< Samples ranked above the percentile.
  bool supported = false;   ///< beyond >= kMinBeyond.
};

/// Nearest-rank index (0-based) of quantile `q` in `n` sorted samples:
/// the smallest rank r with r >= q * n, so exactly n - r samples rank above
/// it. The epsilon keeps 0.999 * 10000 from rounding up to rank 9991.
inline std::size_t NearestRank(std::size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::max<std::size_t>(rank, 1);
  return std::min(rank, n) - 1;
}

/// Smallest sample count whose `q` percentile has kMinBeyond samples
/// beyond it (1000 for p99, 10000 for p99.9).
inline std::size_t MinSamplesFor(double q) {
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(kMinBeyond) / (1.0 - q) - 1e-9));
}

/// Reads quantile `q` (in (0, 1)) off `sorted`, which must be ascending:
/// the mean of the samples whose ranks lie within (1 - q) / 2 * n of the
/// nearest rank (p50: the middle half; p99: ranks 98.5-99.5 %), clamped to
/// the set.
inline Percentile ReadPercentile(const std::vector<double>& sorted, double q) {
  Percentile p;
  p.samples = sorted.size();
  if (sorted.empty()) return p;
  const std::size_t n = sorted.size();
  const std::size_t index = NearestRank(n, q);
  const auto half = static_cast<std::size_t>(
      (1.0 - q) / 2.0 * static_cast<double>(n) + 1e-9);
  const std::size_t lo = index - std::min(index, half);
  const std::size_t hi = std::min(n - 1, index + half);
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += sorted[i];
  p.value = sum / static_cast<double>(hi - lo + 1);
  p.beyond = n - index - 1;
  p.supported = p.beyond >= kMinBeyond;
  return p;
}

/// Median of an unsorted set (mean of the middle pair for even sizes);
/// 0 for an empty set.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench

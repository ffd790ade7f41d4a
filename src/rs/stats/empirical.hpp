/// \file empirical.hpp
/// \brief Empirical statistics: sample quantiles (used by the HP decision
///        rule, Eq. 3), moments, robust location/scale, soft-thresholding
///        (the ADMM y-update).
#pragma once

#include <cstddef>
#include <vector>

#include "rs/common/status.hpp"

namespace rs::stats {

/// Linearly-interpolated sample quantile (type-7, as in NumPy default).
/// `q` in [0, 1]. The input need not be sorted. Selection-based
/// (SelectOrderStatPair, O(n) expected) rather than a full sort — it returns
/// the exact same value a sort + QuantileSorted would, since only the two
/// order statistics adjacent to the interpolation point matter.
Result<double> Quantile(std::vector<double> values, double q);

/// Same, reordering `*values` in place instead of copying (the hot-loop
/// form: callers reuse their scratch buffer across calls). The element
/// order afterwards is unspecified.
Result<double> QuantileInPlace(std::vector<double>* values, double q);

/// Ranges of at most this many elements are sorted outright by
/// SelectOrderStatPair: there an insertion sort beats std::nth_element.
/// The HP planner's warm prefilter hands it sets this small in most
/// decisions (EXPERIMENTS.md, "The insertion-sort branch").
inline constexpr std::size_t kSortSelectMax = 16;

/// \brief The order statistics at ranks lo <= hi < n of values[0..n), the
///        pair a type-7 quantile interpolates between.
///
/// Reorders the range. Exact by construction: the values are the ones a
/// full sort leaves at positions lo and hi, whichever way they are found.
void SelectOrderStatPair(double* values, std::size_t n, std::size_t lo,
                         std::size_t hi, double* v_lo, double* v_hi);

/// Quantile of an already ascending-sorted range (no copy).
Result<double> QuantileSorted(const std::vector<double>& sorted, double q);

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

/// Unbiased sample variance (n-1 denominator); 0 for n < 2.
double Variance(const std::vector<double>& values);

/// Median (copies and partially sorts).
double Median(std::vector<double> values);

/// Median absolute deviation scaled by 1.4826 (consistent for Gaussians).
double MadScale(const std::vector<double>& values);

/// Soft-thresholding operator sign(x)·max(|x|−c, 0) — the proximal map of
/// c·||·||₁ used in line 3 of the paper's ADMM (Algorithm 2).
double SoftThreshold(double x, double c);

/// Element-wise soft-threshold.
std::vector<double> SoftThreshold(const std::vector<double>& x, double c);

/// Mean squared error between two equal-length series.
double MeanSquaredError(const std::vector<double>& a,
                        const std::vector<double>& b);

/// Mean absolute error between two equal-length series.
double MeanAbsoluteError(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Means of consecutive windows of `window` elements (the Fig. 5
/// construction: average response times of every 50 queries). The final
/// partial window is dropped.
std::vector<double> WindowedMeans(const std::vector<double>& values,
                                  std::size_t window);

}  // namespace rs::stats

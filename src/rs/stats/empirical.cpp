#include "rs/stats/empirical.hpp"

#include <algorithm>
#include <cmath>

#include "rs/common/logging.hpp"

namespace rs::stats {

Result<double> Quantile(std::vector<double> values, double q) {
  return QuantileInPlace(&values, q);
}

Result<double> QuantileInPlace(std::vector<double>* values, double q) {
  if (values == nullptr || values->empty()) {
    return Status::Invalid("Quantile: empty input");
  }
  if (!(q >= 0.0) || !(q <= 1.0)) {
    return Status::Invalid("Quantile: q must lie in [0, 1]");
  }
  const std::size_t n = values->size();
  const double pos = q * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  double v_lo = 0.0, v_hi = 0.0;
  SelectOrderStatPair(values->data(), n, lo, hi, &v_lo, &v_hi);
  return v_lo * (1.0 - frac) + v_hi * frac;
}

void SelectOrderStatPair(double* values, std::size_t n, std::size_t lo,
                         std::size_t hi, double* v_lo, double* v_hi) {
  RS_DCHECK(lo <= hi && hi < n);
  if (n <= kSortSelectMax) {
    for (std::size_t i = 1; i < n; ++i) {
      const double v = values[i];
      std::size_t j = i;
      for (; j > 0 && v < values[j - 1]; --j) values[j] = values[j - 1];
      values[j] = v;
    }
    *v_lo = values[lo];
    *v_hi = values[hi];
    return;
  }
  if (hi == lo) {
    std::nth_element(values, values + lo, values + n);
    *v_lo = values[lo];
    *v_hi = *v_lo;
    return;
  }
  // When the pair sits low in the range it is cheaper to select at hi and
  // max-scan the small left partition than to select at lo and min-scan the
  // large right one; pick the cheaper side.
  if (hi <= n - 1 - lo) {
    std::nth_element(values, values + hi, values + n);
    *v_hi = values[hi];
    *v_lo = *std::max_element(values, values + hi);
  } else {
    std::nth_element(values, values + lo, values + n);
    *v_lo = values[lo];
    *v_hi = *std::min_element(values + lo + 1, values + n);
  }
}

Result<double> QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return Status::Invalid("Quantile: empty input");
  if (!(q >= 0.0) || !(q <= 1.0)) {
    return Status::Invalid("Quantile: q must lie in [0, 1]");
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double acc = 0.0;
  for (double v : values) acc += v;
  return acc / static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  const std::size_t n = values.size();
  if (n < 2) return 0.0;
  const double m = Mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return acc / static_cast<double>(n - 1);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  std::nth_element(values.begin(), values.begin() + mid - 1,
                   values.begin() + mid);
  return 0.5 * (values[mid - 1] + upper);
}

double MadScale(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  const double med = Median(std::vector<double>(values));
  std::vector<double> dev(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    dev[i] = std::abs(values[i] - med);
  }
  return 1.4826 * Median(std::move(dev));
}

double SoftThreshold(double x, double c) {
  RS_DCHECK(c >= 0.0);
  if (x > c) return x - c;
  if (x < -c) return x + c;
  return 0.0;
}

std::vector<double> SoftThreshold(const std::vector<double>& x, double c) {
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = SoftThreshold(x[i], c);
  return y;
}

double MeanSquaredError(const std::vector<double>& a,
                        const std::vector<double>& b) {
  RS_DCHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return acc / static_cast<double>(a.size());
}

double MeanAbsoluteError(const std::vector<double>& a,
                         const std::vector<double>& b) {
  RS_DCHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::abs(a[i] - b[i]);
  return acc / static_cast<double>(a.size());
}

std::vector<double> WindowedMeans(const std::vector<double>& values,
                                  std::size_t window) {
  std::vector<double> out;
  if (window == 0) return out;
  const std::size_t full = values.size() / window;
  out.reserve(full);
  for (std::size_t w = 0; w < full; ++w) {
    double acc = 0.0;
    for (std::size_t i = 0; i < window; ++i) acc += values[w * window + i];
    out.push_back(acc / static_cast<double>(window));
  }
  return out;
}

}  // namespace rs::stats

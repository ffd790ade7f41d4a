#include "rs/core/decision.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "rs/common/logging.hpp"
#include "rs/stats/empirical.hpp"

namespace rs::core {

namespace {

Status ValidateSamples(const McSamples& samples) {
  if (samples.xi.empty() || samples.xi.size() != samples.tau.size()) {
    return Status::Invalid("decision: xi/tau samples must be non-empty and equal-sized");
  }
  return Status::OK();
}

/// Ê(+∞) = mean(τ), accumulated in sample order — shared by the reference
/// and kernel RT solvers so their unbounded checks agree bitwise.
double MeanTau(const McSamples& samples) {
  const double inv_n = 1.0 / static_cast<double>(samples.tau.size());
  double e_max = 0.0;
  for (const double t : samples.tau) e_max += t * inv_n;
  return e_max;
}

/// \brief The Algorithm 3 sweep over breakpoints delivered in ascending
///        (x, then +1/R before −1/R) order by `next`.
///
/// `next` returns false when exhausted, otherwise fills (x, slope_delta).
/// Factoring the sweep out guarantees the reference (sorted 2R records) and
/// the kernel (merge of two sorted families) paths run the exact same
/// floating-point sequence, which is what makes their decisions bitwise
/// equal.
template <typename NextBreakpoint>
Decision SweepRtBreakpoints(double rt_excess, NextBreakpoint&& next) {
  double x = 0.0, delta = 0.0;
  const bool more = next(&x, &delta);
  RS_DCHECK(more);
  (void)more;
  double value = 0.0;  // Ê at the previous breakpoint.
  double slope = 0.0;
  double prev_x = x;
  do {
    const double next_value = value + slope * (x - prev_x);
    if (next_value >= rt_excess && slope > 0.0) {
      Decision d;
      d.creation_time = prev_x + (rt_excess - value) / slope;
      d.feasible = d.creation_time >= 0.0;
      d.creation_time = std::max(d.creation_time, 0.0);
      return d;
    }
    value = next_value;
    slope += delta;
    prev_x = x;
  } while (next(&x, &delta));
  // rt_excess < Ê(+∞) guarantees the sweep crosses the target; reaching
  // here means only numerical ties — use the last breakpoint.
  Decision d;
  d.creation_time = std::max(prev_x, 0.0);
  d.feasible = prev_x >= 0.0;
  return d;
}

/// \brief The Eq. 7 solve on an ascending-sorted slack array: immediate
///        creation when Ĝ(0) fits the budget, else the downward sweep from
///        the largest breakpoint. Shared between the reference and kernel
///        cost solvers (bitwise-equal decisions).
Decision SolveCostOnSortedSlack(const std::vector<double>& slack,
                                double idle_budget) {
  const std::size_t n = slack.size();
  const double inv_n = 1.0 / static_cast<double>(n);

  // Ĝ(0): the idle cost of creating immediately (Eq. 7 first case).
  double g0 = 0.0;
  for (double s : slack) g0 += std::max(s, 0.0) * inv_n;
  Decision d;
  if (g0 <= idle_budget) {
    d.creation_time = 0.0;
    return d;
  }

  // Sweep from the largest breakpoint down: Ĝ(slack[n-1]) = 0, and on
  // [slack[k-1], slack[k]] the slope magnitude is (n-k)/n. Because
  // Ĝ(0) = g0 > idle_budget, the crossing occurs at some x in (0, slack max)
  // before the sweep reaches zero.
  double value = 0.0;  // Ĝ at the current segment's upper end.
  for (std::size_t k = n; k-- > 0;) {
    const double seg_hi = slack[k];
    if (seg_hi <= 0.0) break;  // Crossing can only be at x > 0.
    const double seg_lo = std::max(k > 0 ? slack[k - 1] : 0.0, 0.0);
    const double slope_mag = static_cast<double>(n - k) * inv_n;
    const double value_lo = value + slope_mag * (seg_hi - seg_lo);
    if (value_lo >= idle_budget) {
      d.creation_time = seg_hi - (idle_budget - value) / slope_mag;
      return d;
    }
    value = value_lo;
  }
  // Numerically unreachable (g0 > budget); fall back to immediate creation.
  d.creation_time = 0.0;
  return d;
}

}  // namespace

double EstimateExpectedWait(const McSamples& samples, double x) {
  double acc = 0.0;
  for (std::size_t r = 0; r < samples.xi.size(); ++r) {
    const double gap = std::max(samples.xi[r] - x, 0.0);
    acc += std::max(samples.tau[r] - gap, 0.0);
  }
  return acc / static_cast<double>(samples.xi.size());
}

double EstimateExpectedIdle(const McSamples& samples, double x) {
  double acc = 0.0;
  for (std::size_t r = 0; r < samples.xi.size(); ++r) {
    acc += std::max(samples.xi[r] - samples.tau[r] - x, 0.0);
  }
  return acc / static_cast<double>(samples.xi.size());
}

Result<Decision> SolveHpConstrained(const McSamples& samples, double alpha) {
  RS_RETURN_NOT_OK(ValidateSamples(samples));
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    return Status::Invalid("SolveHpConstrained: alpha must lie in (0, 1)");
  }
  std::vector<double> slack(samples.xi.size());
  for (std::size_t r = 0; r < slack.size(); ++r) {
    slack[r] = samples.xi[r] - samples.tau[r];
  }
  // A full sort, as audited against Eq. 3; DecisionKernel::SolveHp selects
  // the same two order statistics without one.
  std::sort(slack.begin(), slack.end());
  RS_ASSIGN_OR_RETURN(const double x_star,
                      stats::QuantileSorted(slack, alpha));
  Decision d;
  d.feasible = x_star >= 0.0;
  d.creation_time = std::max(x_star, 0.0);
  return d;
}

Result<Decision> SolveRtConstrained(const McSamples& samples, double rt_excess) {
  RS_RETURN_NOT_OK(ValidateSamples(samples));
  if (rt_excess < 0.0) {
    return Status::Invalid("SolveRtConstrained: rt_excess must be >= 0");
  }
  const std::size_t n = samples.xi.size();
  const double inv_n = 1.0 / static_cast<double>(n);

  // Ê(x) = (1/R) Σ_r (τ_r − (ξ_r − x)+)+ is non-decreasing piecewise linear:
  // the slope gains 1/R when x passes ξ_r − τ_r (the instance starts waiting
  // on sample r) and loses 1/R when x passes ξ_r (sample r's wait saturates
  // at τ_r). Sweep the 2R breakpoints in ascending order, tracking slope and
  // the accumulated value — the sort-and-search of Algorithm 3.
  if (rt_excess >= MeanTau(samples)) {
    // Constraint slack for all x: never need a proactive creation.
    Decision d;
    d.unbounded = true;
    d.creation_time = std::numeric_limits<double>::infinity();
    return d;
  }
  struct Breakpoint {
    double x;
    double slope_delta;
  };
  std::vector<Breakpoint> bps;
  bps.reserve(2 * n);
  for (std::size_t r = 0; r < n; ++r) {
    bps.push_back({samples.xi[r] - samples.tau[r], inv_n});
    bps.push_back({samples.xi[r], -inv_n});
  }
  // Ties broken toward the +1/R ascent point so the sweep visits the exact
  // breakpoint sequence DecisionKernel's merge produces.
  std::sort(bps.begin(), bps.end(),
            [](const Breakpoint& a, const Breakpoint& b) {
              return a.x < b.x ||
                     (a.x == b.x && a.slope_delta > b.slope_delta);
            });
  std::size_t i = 0;
  return SweepRtBreakpoints(rt_excess, [&bps, &i](double* x, double* delta) {
    if (i == bps.size()) return false;
    *x = bps[i].x;
    *delta = bps[i].slope_delta;
    ++i;
    return true;
  });
}

Result<Decision> SolveCostConstrained(const McSamples& samples,
                                      double idle_budget) {
  RS_RETURN_NOT_OK(ValidateSamples(samples));
  if (idle_budget < 0.0) {
    return Status::Invalid("SolveCostConstrained: idle_budget must be >= 0");
  }
  const std::size_t n = samples.xi.size();
  // Ĝ(x) = (1/R) Σ_r (ξ_r − τ_r − x)+ is non-increasing piecewise linear
  // with slope −(#{r : ξ_r − τ_r > x})/R; breakpoints at ξ_r − τ_r.
  std::vector<double> slack(n);
  for (std::size_t r = 0; r < n; ++r) {
    slack[r] = samples.xi[r] - samples.tau[r];
  }
  std::sort(slack.begin(), slack.end());
  return SolveCostOnSortedSlack(slack, idle_budget);
}

// ---------------------------------------------------------------------------
// DecisionKernel
// ---------------------------------------------------------------------------

void DecisionKernel::Bind(const McSamples& samples) {
  samples_ = &samples;
  xi_ascending_ = false;
  slack_ready_ = false;
  sorted_slack_ready_ = false;
  sorted_xi_ready_ = false;
  prefixes_ready_ = false;
  uniform_tau_ = -1;
}

void DecisionKernel::BindAscendingXi(const McSamples& samples) {
  Bind(samples);
  xi_ascending_ = true;
}

bool DecisionKernel::UniformTau() const {
  if (uniform_tau_ < 0) {
    const auto& tau = samples_->tau;
    uniform_tau_ = 1;
    for (std::size_t r = 1; r < tau.size(); ++r) {
      if (tau[r] != tau[0]) {
        uniform_tau_ = 0;
        break;
      }
    }
  }
  return uniform_tau_ == 1;
}

Status DecisionKernel::EnsureBound() const {
  if (samples_ == nullptr) {
    return Status::Invalid("DecisionKernel: no samples bound");
  }
  return ValidateSamples(*samples_);
}

void DecisionKernel::EnsureSlack() {
  if (slack_ready_) return;
  const std::size_t n = samples_->xi.size();
  slack_.resize(n);
  const double* xi = samples_->xi.data();
  const double* tau = samples_->tau.data();
  for (std::size_t r = 0; r < n; ++r) slack_[r] = xi[r] - tau[r];
  slack_ready_ = true;
}

void DecisionKernel::EnsureSortedSlack() {
  if (sorted_slack_ready_) return;
  // Constant τ with pre-sorted ξ: the sorted slack is sorted ξ − τ applied
  // element-wise — the exact doubles a pairwise-subtract-then-sort yields,
  // with no comparison sort at all.
  if (xi_ascending_ && UniformTau()) {
    EnsureSortedXi();
    const std::size_t n = sorted_xi_.size();
    slack_.resize(n);
    const double tau = samples_->tau.empty() ? 0.0 : samples_->tau[0];
    for (std::size_t i = 0; i < n; ++i) slack_[i] = sorted_xi_[i] - tau;
    slack_ready_ = true;  // (Sorted counts as filled.)
    sorted_slack_ready_ = true;
    return;
  }
  EnsureSlack();
  common::RadixSortAscending(slack_.data(), slack_.size(), &radix_);
  sorted_slack_ready_ = true;
}

void DecisionKernel::EnsureSortedXi() {
  if (sorted_xi_ready_) return;
  const std::size_t n = samples_->xi.size();
  sorted_xi_.resize(n);
  std::copy(samples_->xi.begin(), samples_->xi.end(), sorted_xi_.begin());
  if (!xi_ascending_) {
    common::RadixSortAscending(sorted_xi_.data(), n, &radix_);
  }
  sorted_xi_ready_ = true;
}

void DecisionKernel::EnsurePrefixes() {
  if (prefixes_ready_) return;
  EnsureSortedSlack();
  EnsureSortedXi();
  const std::size_t n = slack_.size();
  slack_prefix_.resize(n + 1);
  xi_prefix_.resize(n + 1);
  slack_prefix_[0] = 0.0;
  xi_prefix_[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    slack_prefix_[i + 1] = slack_prefix_[i] + slack_[i];
    xi_prefix_[i + 1] = xi_prefix_[i] + sorted_xi_[i];
  }
  prefixes_ready_ = true;
}

Result<Decision> DecisionKernel::SolveHp(double alpha) {
  RS_RETURN_NOT_OK(EnsureBound());
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    return Status::Invalid("SolveHpConstrained: alpha must lie in (0, 1)");
  }
  double x_star = 0.0;
  if (sorted_slack_ready_) {
    RS_ASSIGN_OR_RETURN(x_star, stats::QuantileSorted(slack_, alpha));
  } else {
    // Selection on a scratch copy: O(R) and leaves slack_ usable (still
    // unsorted) for a later solver on the same bind.
    EnsureSlack();
    scratch_.resize(slack_.size());
    std::copy(slack_.begin(), slack_.end(), scratch_.begin());
    RS_ASSIGN_OR_RETURN(x_star, stats::QuantileInPlace(&scratch_, alpha));
  }
  Decision d;
  d.feasible = x_star >= 0.0;
  d.creation_time = std::max(x_star, 0.0);
  return d;
}

Result<Decision> DecisionKernel::SolveRt(double rt_excess) {
  RS_RETURN_NOT_OK(EnsureBound());
  if (rt_excess < 0.0) {
    return Status::Invalid("SolveRtConstrained: rt_excess must be >= 0");
  }
  if (rt_excess >= MeanTau(*samples_)) {
    Decision d;
    d.unbounded = true;
    d.creation_time = std::numeric_limits<double>::infinity();
    return d;
  }
  EnsureSortedSlack();
  EnsureSortedXi();
  // Merge the two ascending breakpoint families; a slack (ascent) point
  // wins ties, matching the reference sort's tie-break.
  const std::size_t n = slack_.size();
  const double inv_n = 1.0 / static_cast<double>(n);
  std::size_t i = 0, j = 0;
  return SweepRtBreakpoints(
      rt_excess, [this, n, inv_n, &i, &j](double* x, double* delta) {
        if (i < n && (j == n || slack_[i] <= sorted_xi_[j])) {
          *x = slack_[i];
          *delta = inv_n;
          ++i;
          return true;
        }
        if (j < n) {
          *x = sorted_xi_[j];
          *delta = -inv_n;
          ++j;
          return true;
        }
        return false;
      });
}

Result<Decision> DecisionKernel::SolveCost(double idle_budget) {
  RS_RETURN_NOT_OK(EnsureBound());
  if (idle_budget < 0.0) {
    return Status::Invalid("SolveCostConstrained: idle_budget must be >= 0");
  }
  EnsureSortedSlack();
  return SolveCostOnSortedSlack(slack_, idle_budget);
}

double DecisionKernel::ExpectedWait(double x) {
  RS_DCHECK(samples_ != nullptr && !samples_->xi.empty());
  EnsurePrefixes();
  // Split (τ − (ξ − x)+)+ = (x − slack)·[slack <= x] − (x − ξ)·[ξ <= x]
  // (valid for τ >= 0, which makes slack <= ξ): both pieces are prefix-sum
  // queries over a sorted array.
  const std::size_t n = slack_.size();
  const auto cnt_s = static_cast<std::size_t>(
      std::upper_bound(slack_.begin(), slack_.end(), x) - slack_.begin());
  const auto cnt_x = static_cast<std::size_t>(
      std::upper_bound(sorted_xi_.begin(), sorted_xi_.end(), x) -
      sorted_xi_.begin());
  const double ascent = static_cast<double>(cnt_s) * x - slack_prefix_[cnt_s];
  const double saturated = static_cast<double>(cnt_x) * x - xi_prefix_[cnt_x];
  return (ascent - saturated) / static_cast<double>(n);
}

double DecisionKernel::ExpectedIdle(double x) {
  RS_DCHECK(samples_ != nullptr && !samples_->xi.empty());
  EnsurePrefixes();
  const std::size_t n = slack_.size();
  const auto cnt = static_cast<std::size_t>(
      std::upper_bound(slack_.begin(), slack_.end(), x) - slack_.begin());
  const double above_sum = slack_prefix_[n] - slack_prefix_[cnt];
  return (above_sum - static_cast<double>(n - cnt) * x) /
         static_cast<double>(n);
}

std::size_t DecisionKernel::WorkspaceBytes() const {
  return (slack_.capacity() + slack_prefix_.capacity() +
          sorted_xi_.capacity() + xi_prefix_.capacity() +
          scratch_.capacity()) *
             sizeof(double) +
         radix_.RetainedBytes();
}

}  // namespace rs::core

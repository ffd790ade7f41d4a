/// \file decision.hpp
/// \brief The per-query scaling-decision solvers of Section VI-B:
///        HP-constrained quantile rule (Eq. 3), RT-constrained
///        sort-and-search (Eq. 5 / Algorithm 3), and the cost-constrained
///        rule (Eq. 7). All operate on Monte Carlo samples of the upcoming
///        arrival time ξ and pending time τ.
///
/// Two forms are provided. The free functions are the reference
/// implementations: allocate, sort, solve — simple enough to audit against
/// the paper. The RobustScaler planning round does not call them;
/// core::RunReferenceRound does, as the oracle that tests and
/// bench_plan_hot_path hold that round to. DecisionKernel is the hot-path
/// form: it binds to one sample set, shares a single O(R log R)
/// preprocessing pass (sorted slack ξ−τ, sorted ξ, prefix sums) across the
/// three solvers and the Ê/Ĝ curve queries, and reuses its buffers across
/// bind cycles so a steady planning loop allocates nothing. Every
/// DecisionKernel solver returns a Decision bitwise-identical to its
/// reference free function.
#pragma once

#include <cstddef>
#include <vector>

#include "rs/common/radix_sort.hpp"
#include "rs/common/status.hpp"

namespace rs::core {

/// Monte Carlo samples for one upcoming query: xi[r] is the sampled arrival
/// time (relative to "now"), tau[r] the sampled instance pending time.
/// Sizes must match and be >= 1; tau must be >= 0.
struct McSamples {
  std::vector<double> xi;
  std::vector<double> tau;
};

/// Decision value for one query: when to create its instance, relative to
/// now. `feasible == false` (HP variant only) means even immediate creation
/// (x = 0) cannot reach the requested level — the caller should create
/// immediately (the clamped decision is in `creation_time`, = 0).
/// `unbounded == true` (RT/cost variants) means the constraint is slack for
/// every x, so no proactive creation is needed at all.
struct Decision {
  double creation_time = 0.0;
  bool feasible = true;
  bool unbounded = false;
};

/// \brief HP-constrained rule (Eq. 3): x* = α-quantile of (ξ − τ).
///
/// \param alpha miss budget, α = 1 − target hitting probability, in (0, 1).
Result<Decision> SolveHpConstrained(const McSamples& samples, double alpha);

/// \brief RT-constrained rule (Eq. 5): the x with
///        Ê[(τ − (ξ − x)+)+] = rt_excess, found by the O(R log R)
///        sort-and-search sweep of Algorithm 3.
///
/// \param rt_excess the waiting-time budget d − µs (>= 0). If it exceeds
///        E[τ] the constraint is slack everywhere → `unbounded`.
Result<Decision> SolveRtConstrained(const McSamples& samples, double rt_excess);

/// \brief Cost-constrained rule (Eq. 7): x* = 0 when Ê[(ξ−τ)+] <= idle
///        budget, otherwise the x with Ê[(ξ − τ − x)+] = idle_budget.
///
/// \param idle_budget B − µτ − µs (>= 0): allowed mean idle time/instance.
Result<Decision> SolveCostConstrained(const McSamples& samples,
                                      double idle_budget);

/// Ê[(τ − (ξ − x)+)+]: the Monte Carlo expected waiting time if the
/// instance is created at x (exposed for tests/verification of Alg. 3).
double EstimateExpectedWait(const McSamples& samples, double x);

/// Ê[(ξ − τ − x)+]: the Monte Carlo expected idle time for creation at x.
double EstimateExpectedIdle(const McSamples& samples, double x);

/// \brief Allocation-free evaluator over one bound sample set.
///
/// Bind() points the kernel at a sample set without copying it; the sorted
/// views and prefix sums are then built lazily, at most once per bind, in
/// buffers that persist across binds. Solvers match the free functions
/// bitwise; the curve queries ExpectedWait/ExpectedIdle answer arbitrary
/// candidates in O(log R) from the shared prefix sums (they agree with the
/// naive O(R) estimators to floating-point reassociation, not bitwise).
class DecisionKernel {
 public:
  /// Binds `samples` (kept by pointer — caller keeps it alive and unchanged
  /// until the next Bind). Invalidates all previously prepared state.
  void Bind(const McSamples& samples);

  /// Bind, additionally declaring that samples.xi is already ascending (the
  /// batched arrival sampler emits it that way when the original sample
  /// order no longer matters). The kernel then skips its own ξ sort, and —
  /// when τ is constant across samples — derives the sorted slack directly
  /// as sorted ξ − τ, skipping that sort too.
  void BindAscendingXi(const McSamples& samples);

  /// HP rule via order-statistic selection on the slack buffer: O(R)
  /// expected, no sort unless another solver already paid for one.
  Result<Decision> SolveHp(double alpha);

  /// RT rule as a merge-sweep over the two sorted breakpoint families
  /// (slack ascent points ξ−τ, saturation points ξ) — Algorithm 3 without
  /// materializing or sorting the 2R breakpoint records.
  Result<Decision> SolveRt(double rt_excess);

  /// Cost rule on the shared sorted slack.
  Result<Decision> SolveCost(double idle_budget);

  /// Ê[(τ − (ξ − x)+)+] in O(log R) after O(R log R) one-time prep.
  double ExpectedWait(double x);

  /// Ê[(ξ − τ − x)+] in O(log R) after the same prep.
  double ExpectedIdle(double x);

  /// Bytes of scratch retained across binds (buffer capacities) — the
  /// kernel's share of a PlanWorkspace's memory accounting.
  std::size_t WorkspaceBytes() const;

 private:
  Status EnsureBound() const;
  void EnsureSlack();        ///< slack_[r] = ξ_r − τ_r (unsorted).
  void EnsureSortedSlack();  ///< slack_ ascending.
  void EnsureSortedXi();     ///< sorted ξ.
  void EnsurePrefixes();     ///< Prefix sums for the curve queries.
  bool UniformTau() const;   ///< All τ equal (memoized per bind).

  const McSamples* samples_ = nullptr;
  std::vector<double> slack_;         ///< Unsorted until EnsureSortedSlack.
  std::vector<double> slack_prefix_;  ///< slack_prefix_[i] = Σ slack_[0..i).
  std::vector<double> sorted_xi_;
  std::vector<double> xi_prefix_;
  std::vector<double> scratch_;  ///< Selection buffer for SolveHp.
  common::RadixSortScratch radix_;
  bool xi_ascending_ = false;    ///< samples_->xi declared pre-sorted.
  bool slack_ready_ = false;
  bool sorted_slack_ready_ = false;
  bool sorted_xi_ready_ = false;
  bool prefixes_ready_ = false;
  mutable int uniform_tau_ = -1;  ///< −1 unknown, else 0/1.
};

}  // namespace rs::core

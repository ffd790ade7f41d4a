/// \file sequential_scaler.hpp
/// \brief The sequential proactive scaling schemes of Section VI-C.
///
/// Two implementations of Algorithm 4 are provided:
///  * RobustScalerPolicy — the experiments' variant (Section VII-A1):
///    planning every Δ seconds; each round computes creation times for all
///    upcoming queries whose optimal creation time falls inside the next Δ
///    window, with the look-ahead threshold κ arising implicitly from the
///    outstanding-instance count. Supports the HP (Eq. 3), RT (Eq. 5 /
///    Alg. 3) and cost (Eq. 7) decision rules.
///  * HpCountScaler — the literal Algorithm 4: planning every m arrivals,
///    always staying κ+1 arrivals ahead; used to validate Proposition 1.
///
/// Both planners run their Monte Carlo rounds serially on the calling
/// thread through a persistent PlanWorkspace (batched sampling + the
/// allocation-free DecisionKernel); a fleet parallelises across tenants,
/// never inside one plan. Every draw comes from a counter-based substream
/// of the round's master state keyed on (query index, path block) — see
/// stats::Rng::SubstreamAt — so a round draws, solves and emits one query
/// at a time. RunReferenceRound replays a round on the same draws through
/// scalar inversions and the free-function solvers of decision.hpp; it
/// emits byte-identical actions, which is the guarantee that keeps the hot
/// path safe to optimize, and tests and bench_plan_hot_path check it.
#pragma once

#include <cstdint>
#include <vector>

#include "rs/common/status.hpp"
#include "rs/core/decision.hpp"
#include "rs/simulator/autoscaler.hpp"
#include "rs/stats/distributions.hpp"
#include "rs/stats/rng.hpp"
#include "rs/workload/intensity.hpp"

namespace rs::core {

/// Which stochastically-constrained formulation drives decisions.
enum class ScalerVariant {
  kHittingProbability,  ///< RobustScaler-HP: P(hit) >= 1 − α (Eq. 2/3).
  kResponseTime,        ///< RobustScaler-RT: E[RT] <= d (Eq. 4/5).
  kCost,                ///< RobustScaler-cost: E[cost] <= B (Eq. 6/7).
};

/// \brief Persistent per-policy buffers for the planning hot loop: Monte
///        Carlo path state, batch-inversion and selection scratch, τ/ξ
///        sample storage and the decision kernel, all reused across rounds
///        so steady-state planning performs no heap allocation.
struct PlanWorkspace {
  std::vector<double> gamma;  ///< Cumulative unit-rate exposure per path.
  /// Λ(now) + γ: inversion input. Also receives each query's Exp(1) draws
  /// before they are folded into gamma, and is the HP selection's copy of
  /// γ when no warm pivot applies.
  std::vector<double> targets;
  std::vector<std::uint32_t> order;  ///< Batch-inversion index scratch.
  std::vector<double> gather;        ///< Pivot-prefilter buffer (HP).
  common::RadixSortScratch radix;    ///< Target-sort scratch (RT/cost).
  McSamples samples;                 ///< ξ/τ buffers bound to the kernel.
  DecisionKernel kernel;
  /// Previous round's per-query α-quantile of γ — the warm pivot that lets
  /// the next round's selection pre-filter to ~αR elements.
  std::vector<double> hp_cuts;

  /// Resizes the per-path draw buffers to `r` elements (no-op once warm).
  /// Shrinks to fit when `r` drops well below the retained capacity, so a
  /// fleet tenant whose R shrinks stops pinning its peak-size buffers.
  void EnsureSize(std::size_t r);

  /// Bytes of planning scratch currently retained (buffer capacities and
  /// the kernel included) — surfaced through
  /// Autoscaler::planning_workspace_bytes into serving snapshots.
  std::size_t RetainedBytes() const;

  /// Λ(now) memoized on `now`: back-to-back rounds at the same instant
  /// (initialize + first tick) skip the re-derivation.
  double CumulativeAt(const workload::PiecewiseConstantIntensity& forecast,
                      double now);

 private:
  double cached_now_ = 0.0;
  double cached_base_ = 0.0;
  bool cache_valid_ = false;
};

/// \brief One Monte Carlo planning round: the decisions for upcoming
///        queries skip+1 … skip+count, each from r_count sample paths.
struct RoundParams {
  const workload::PiecewiseConstantIntensity* forecast = nullptr;
  const stats::DurationDistribution* pending = nullptr;
  ScalerVariant variant = ScalerVariant::kHittingProbability;
  double alpha = 0.1;
  double rt_excess = 0.0;
  double idle_budget = 0.0;
  double now = 0.0;          ///< Forecast-local decision time.
  double emit_origin = 0.0;  ///< Clock the creation times are emitted on.
  std::size_t r_count = 0;
  std::size_t skip = 0;   ///< Upcoming queries already covered this round.
  std::size_t count = 0;  ///< Decisions to commit this round.
  /// Ends the round at the first unbounded decision (later queries are
  /// even more slack).
  bool stop_on_unbounded = false;
  const char* who = "RobustScaler";  ///< Log prefix for failed decisions.
};

/// \brief The planning round both planners run: draws, solves through the
///        workspace's optimized kernels and emits one query at a time,
///        stopping at the first failed (or, if requested, unbounded)
///        decision.
///
/// A round with count > 0 advances `master` by exactly one raw draw (the
/// substream epoch), so failures and early stops never shift later rounds'
/// draws; a round with count == 0 touches nothing.
sim::ScalingAction RunMonteCarloRound(const RoundParams& p, stats::Rng* master,
                                      PlanWorkspace* ws);

/// \brief Reference oracle for RunMonteCarloRound: the same draws and the
///        same `master` advance, solved with scalar InverseCumulative calls
///        and the free-function solvers in buffers allocated per call.
///
/// Emits byte-identical actions. No planner calls it; tests and
/// bench_plan_hot_path run it beside the optimized round on the same
/// schedule.
sim::ScalingAction RunReferenceRound(const RoundParams& p, stats::Rng* master);

/// Options for RobustScalerPolicy.
struct SequentialScalerOptions {
  ScalerVariant variant = ScalerVariant::kHittingProbability;
  /// HP variant: miss budget α = 1 − target hitting probability.
  double alpha = 0.1;
  /// RT variant: waiting-time budget d − µs (seconds).
  double rt_excess = 1.0;
  /// Cost variant: idle-time budget B − µτ − µs (seconds per instance).
  double idle_budget = 2.0;
  /// Monte Carlo sample count R per decision (paper's Fig. 8 study: 1000).
  std::size_t mc_samples = 300;
  /// Planning interval Δ in seconds (paper: 1 s; Fig. 10(d) sweeps 1–60).
  double planning_interval = 1.0;
  /// Safety cap on creations scheduled per planning round.
  std::size_t max_creations_per_round = 20000;
  /// Miss budget used for the look-ahead depth κ (Eq. 8). The HP variant
  /// reuses its own `alpha`; RT/cost variants use this value purely to size
  /// the committed look-ahead.
  double kappa_alpha = 0.1;
  /// Window (seconds) ahead of `now` scanned for the local intensity bound
  /// λ̄ that feeds κ — Section VII-A1's time-dependent κ.
  double local_intensity_window = 300.0;
  /// Simulation time that corresponds to the forecast's local time 0.
  /// 0 for a forecast anchored at the test start; the refitting wrapper
  /// sets it to the refit time.
  double forecast_origin = 0.0;
  std::uint64_t seed = 31;
};

/// \brief The RobustScaler autoscaling policy (time-interval planning).
///
/// The forecast intensity's local time zero must coincide with simulation
/// time zero (i.e., the start of the replayed test trace).
class RobustScalerPolicy : public sim::Autoscaler {
 public:
  RobustScalerPolicy(workload::PiecewiseConstantIntensity forecast,
                     stats::DurationDistribution pending,
                     SequentialScalerOptions options);

  const char* name() const override;
  double planning_interval() const override {
    return options_.planning_interval;
  }
  /// Decisions depend on the forecast and outstanding-instance counts only,
  /// never on past arrival times: no history retention needed.
  double history_requirement() const override { return 0.0; }
  std::size_t planning_workspace_bytes() const override {
    return workspace_.RetainedBytes();
  }

  sim::ScalingAction Initialize(const sim::SimContext& ctx) override;
  sim::ScalingAction OnPlanningTick(const sim::SimContext& ctx) override;

  /// The round Initialize/OnPlanningTick run at `ctx` (count == 0 when
  /// nothing is due), so RunReferenceRound can replay the same schedule.
  RoundParams PlanningRound(const sim::SimContext& ctx) const;

  /// \brief Durable-snapshot support (rs::persist): the policy's mutable
  ///        model is its RNG position; option scalars ride along so restore
  ///        can cross-check them against the rebuilt spec.
  ///
  /// The PlanWorkspace (γ paths, solve scratch, hp_cuts warm pivots) is
  /// pure scratch — it changes planning *speed*, never the emitted actions
  /// (the RunReferenceRound parity tests pin this) — so it is deliberately
  /// not persisted and restarts cold. The policy holds no κ state: κ is
  /// recomputed every round, through the per-thread Gamma-quantile memo of
  /// ComputeKappaBinarySearch, which lives outside every policy.
  Status SerializeModel(persist::Writer* writer) const override;
  Status DeserializeModel(persist::Reader* reader) override;
  /// Prints a kTagRobustModel section field by field (rs_snapshot).
  static Status DescribeModel(persist::Printer* printer);

  const SequentialScalerOptions& options() const { return options_; }

 private:
  /// Committed look-ahead depth κ + m for the local intensity at
  /// forecast-local time `now`.
  std::size_t CommitDepth(double now) const;

  workload::PiecewiseConstantIntensity forecast_;
  stats::DurationDistribution pending_;
  SequentialScalerOptions options_;
  stats::Rng rng_;
  PlanWorkspace workspace_;
};

/// Options for the literal Algorithm 4 (query-count planning).
struct HpCountScalerOptions {
  double alpha = 0.1;          ///< Miss budget α.
  std::size_t m = 1;           ///< Plan every m arrivals.
  std::size_t mc_samples = 2000;
  std::uint64_t seed = 47;
  /// Upper intensity bound λ̄ for κ (Eq. 8); <= 0 derives it from the
  /// forecast's maximum rate.
  double lambda_bar = 0.0;
};

/// \brief Literal Algorithm 4 with the κ threshold: plans creation times
///        for the (κ+1)-th … (κ+m)-th upcoming queries every m arrivals.
class HpCountScaler : public sim::Autoscaler {
 public:
  HpCountScaler(workload::PiecewiseConstantIntensity forecast,
                stats::DurationDistribution pending,
                HpCountScalerOptions options);

  const char* name() const override { return "RobustScaler-HP-count"; }
  /// Plans from the forecast alone; past arrivals are never re-read.
  double history_requirement() const override { return 0.0; }
  std::size_t planning_workspace_bytes() const override {
    return workspace_.RetainedBytes();
  }

  sim::ScalingAction Initialize(const sim::SimContext& ctx) override;
  sim::ScalingAction OnQueryArrival(const sim::SimContext& ctx,
                                    bool cold_start) override;

  /// The κ computed at initialization (for tests).
  std::size_t kappa() const { return kappa_; }

 private:
  /// Plans x for the (first_j)-th … (first_j + count − 1)-th upcoming
  /// queries measured from `now`.
  sim::ScalingAction PlanAhead(double now, std::size_t first_j,
                               std::size_t count);

  workload::PiecewiseConstantIntensity forecast_;
  stats::DurationDistribution pending_;
  HpCountScalerOptions options_;
  stats::Rng rng_;
  PlanWorkspace workspace_;
  std::size_t kappa_ = 0;
  std::size_t arrivals_since_plan_ = 0;
};

}  // namespace rs::core

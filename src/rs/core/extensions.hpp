/// \file extensions.hpp
/// \brief Paper-motivated companion strategies used for ablations:
///
///  * NaiveBatchScaler — the "naive strategy" of Section VI-C: plan a batch
///    of K creation times by (3), wait until *all* K instances are consumed,
///    then plan the next batch. Its defect (the first few queries of each
///    batch find no instance ready) is exactly what the κ threshold fixes.
///  * MeanRateScaler — the related-work strawman (Section II): scales on a
///    mean demand estimate with no uncertainty handling — instance j is
///    created at the predicted *expected* arrival time minus the mean
///    pending time. Shows the value of the stochastic constraints.
///  * RefittingPolicy — Section VII-B2's deployment mode: the NHPP model is
///    refit at a low frequency (e.g., every half hour) on the training data
///    plus arrivals observed so far, so the forecast tracks drift. It keeps
///    one train::TrainingSession open on that window and bins only the
///    arrivals since the previous refit, so it is defined one layer up, in
///    src/rs/train/refitting_policy.cpp (link rs_train to use it).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rs/core/pipeline.hpp"
#include "rs/core/sequential_scaler.hpp"
#include "rs/simulator/autoscaler.hpp"
#include "rs/workload/trace.hpp"

namespace rs::train {
class TrainingSession;
}  // namespace rs::train

namespace rs::core {

/// Options for the naive batch strategy.
struct NaiveBatchOptions {
  double alpha = 0.1;        ///< Miss budget for the per-query rule (Eq. 3).
  std::size_t batch = 20;    ///< K: queries planned per batch.
  std::size_t mc_samples = 300;
  std::uint64_t seed = 53;
};

/// \brief Section VI-C's naive strategy: batch-plan K instances, replan only
///        after all K are consumed.
class NaiveBatchScaler : public sim::Autoscaler {
 public:
  NaiveBatchScaler(workload::PiecewiseConstantIntensity forecast,
                   stats::DurationDistribution pending,
                   NaiveBatchOptions options);

  const char* name() const override { return "NaiveBatch"; }
  /// Batch plans come from the forecast; history is never read.
  double history_requirement() const override { return 0.0; }

  sim::ScalingAction Initialize(const sim::SimContext& ctx) override;
  sim::ScalingAction OnQueryArrival(const sim::SimContext& ctx,
                                    bool cold_start) override;

 private:
  sim::ScalingAction PlanBatch(double now);

  workload::PiecewiseConstantIntensity forecast_;
  stats::DurationDistribution pending_;
  NaiveBatchOptions options_;
  stats::Rng rng_;
};

/// Options for the mean-rate strategy.
struct MeanRateOptions {
  double planning_interval = 5.0;
  /// Look-ahead depth in expected arrivals (same role as κ+m).
  std::size_t depth = 20;
  std::uint64_t seed = 59;
};

/// \brief Uncertainty-blind strawman: instance j is scheduled at the mean
///        predicted arrival time of the j-th upcoming query minus the mean
///        pending time (clamped at now). No quantiles, no constraints.
class MeanRateScaler : public sim::Autoscaler {
 public:
  MeanRateScaler(workload::PiecewiseConstantIntensity forecast,
                 stats::DurationDistribution pending, MeanRateOptions options);

  const char* name() const override { return "MeanRate"; }
  double planning_interval() const override {
    return options_.planning_interval;
  }
  /// Mean-rate schedules come from the forecast; history is never read.
  double history_requirement() const override { return 0.0; }

  sim::ScalingAction OnPlanningTick(const sim::SimContext& ctx) override;

 private:
  workload::PiecewiseConstantIntensity forecast_;
  stats::DurationDistribution pending_;
  MeanRateOptions options_;
};

/// Options for the refitting wrapper.
struct RefittingOptions {
  /// Seconds between refits (paper suggestion: every half hour).
  double refit_interval = 1800.0;
  /// Pipeline configuration reused at every refit.
  PipelineOptions pipeline;
  /// Scaling policy configuration rebuilt after every refit.
  SequentialScalerOptions scaler;
};

/// \brief Deployment-mode wrapper: periodically refits the NHPP on the
///        original training trace plus all arrivals observed during the
///        replay, rebuilds the forecast anchored at the refit time, and
///        delegates scaling to a fresh RobustScalerPolicy.
///
/// Every refit is a cold TrainingSession::Fit of the whole window, so the
/// model is byte-identical to TrainRobustScaler on the training trace plus
/// the observed arrivals; only the binning is incremental.
class RefittingPolicy : public sim::Autoscaler {
 public:
  /// \param training  historical trace; its horizon is where simulation
  ///                  time 0 begins.
  RefittingPolicy(workload::Trace training,
                  stats::DurationDistribution pending,
                  RefittingOptions options);
  ~RefittingPolicy() override;

  const char* name() const override { return "RobustScaler-refit"; }
  double planning_interval() const override {
    return options_.scaler.planning_interval;
  }
  /// Refits read the observed history by position from the last refit on:
  /// serving state must not compact it.
  double history_requirement() const override {
    return sim::kUnboundedHistory;
  }

  sim::ScalingAction Initialize(const sim::SimContext& ctx) override;
  sim::ScalingAction OnPlanningTick(const sim::SimContext& ctx) override;

  /// Number of successful refits performed (for tests/diagnostics).
  std::size_t refit_count() const { return refit_count_; }

 private:
  /// Bins the arrivals observed since the last refit, refits the window
  /// ending at `now` and rebuilds the delegate.
  Status Refit(double now, const std::vector<double>& observed_arrivals);

  /// Training horizon: simulation time t is session time t + offset_.
  double offset_;
  stats::DurationDistribution pending_;
  RefittingOptions options_;
  /// The training window plus every arrival binned so far (null when the
  /// training trace could not open one; every refit then reports why).
  std::unique_ptr<train::TrainingSession> session_;
  Status session_status_;
  /// Session-time arrivals not binned yet: those at the window end, which
  /// a refit's binning drops and the next one counts.
  std::vector<double> unbinned_;
  std::size_t observed_binned_ = 0;  ///< Observed arrivals already moved.
  std::unique_ptr<RobustScalerPolicy> delegate_;
  double last_refit_ = 0.0;
  std::size_t refit_count_ = 0;
};

}  // namespace rs::core

// Tests of the model-freshness stack introduced with rs::train: the
// resumable TrainingSession (cold parity with TrainRobustScaler, warm-start
// refits), the ADMM warm-start option itself, the streaming DriftDetector
// (rate-shift CUSUM, periodicity check, snapshot continuation), and the
// ScalerFleet freshness loop — drift → background retrain → tear-free hot
// swap at a plan boundary, with byte-identical parity against unswapped and
// fresh-model controls across worker counts and all registry strategies. The TSan CI job runs this whole suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rs/api/api.hpp"
#include "rs/core/admm.hpp"
#include "rs/core/extensions.hpp"
#include "rs/core/pipeline.hpp"
#include "rs/persist/persist.hpp"
#include "rs/simulator/decision_clock.hpp"
#include "rs/simulator/engine.hpp"
#include "rs/stats/rng.hpp"
#include "rs/timeseries/drift.hpp"
#include "rs/train/training_session.hpp"

namespace rs {
namespace {

using api::ScalerFleet;

// ---------------------------------------------------------------------------
// Shared fixtures: sinusoidal workloads (10-min cycles, 30 s bins) so every
// training run in this file finishes in milliseconds.
// ---------------------------------------------------------------------------

constexpr double kPeriodS = 600.0;
constexpr double kDt = 30.0;
constexpr double kTick = 2.0;  ///< PlanAll cadence (= planning interval).

workload::Trace MakeSineTrace(std::uint64_t seed, double horizon, double qps,
                              double period = kPeriodS, double shift_at = -1.0,
                              double shift_factor = 1.0) {
  std::vector<double> rates;
  for (double t = 0.5 * kDt; t < horizon; t += kDt) {
    const double phase = std::fmod(t, period) / period;
    double rate = qps * (1.0 + 0.4 * std::sin(2.0 * M_PI * phase));
    if (shift_at >= 0.0 && t >= shift_at) rate *= shift_factor;
    rates.push_back(rate);
  }
  auto intensity = *workload::PiecewiseConstantIntensity::Make(rates, kDt);
  stats::Rng rng(seed);
  return *workload::MakeTraceFromIntensity(
      &rng, intensity, stats::DurationDistribution::Exponential(15.0));
}

core::PipelineOptions MakePipelineOptions(double forecast_horizon) {
  core::PipelineOptions options;
  options.dt = kDt;
  options.forecast_horizon = forecast_horizon;
  return options;
}

api::Scaler BuildScaler(const workload::Trace& train, double forecast_horizon,
                        const char* spec_string) {
  auto spec = api::ParseStrategySpec(spec_string);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  auto scaler = api::ScalerBuilder()
                    .WithTrace(train)
                    .WithBinWidth(kDt)
                    .WithForecastHorizon(forecast_horizon)
                    .WithStrategy(*spec)
                    .WithPlanningInterval(kTick)
                    .WithMcSamples(40)
                    .Build();
  EXPECT_TRUE(scaler.ok()) << scaler.status().ToString();
  return std::move(scaler).ValueOrDie();
}

void ExpectActionsIdentical(const std::vector<sim::ScalingAction>& expected,
                            const std::vector<sim::ScalingAction>& got,
                            const std::string& label) {
  ASSERT_EQ(expected.size(), got.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].deletions, got[i].deletions)
        << label << ", action " << i;
    ASSERT_EQ(expected[i].creation_times.size(), got[i].creation_times.size())
        << label << ", action " << i;
    for (std::size_t j = 0; j < expected[i].creation_times.size(); ++j) {
      // Byte-identical, not approximately equal: tear-free swaps must not
      // perturb a single arithmetic operation on either side of the
      // boundary.
      EXPECT_EQ(expected[i].creation_times[j], got[i].creation_times[j])
          << label << ", action " << i << ", creation " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// rs::train::TrainingSession — cold parity, warm refits, appends.
// ---------------------------------------------------------------------------

TEST(TrainingSession, ColdFitMatchesTrainRobustScalerBitwise) {
  const auto trace = MakeSineTrace(21, 4.0 * kPeriodS, 1.0);
  const auto options = MakePipelineOptions(2.0 * kPeriodS);

  auto direct = core::TrainRobustScaler(trace, options);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  auto session = train::TrainingSession::FromTrace(trace, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto fit = session->Fit();
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();

  // Same modules in the same order: the results must be bitwise equal,
  // not approximately equal.
  EXPECT_EQ(direct->period.period, fit->period.period);
  EXPECT_EQ(direct->admm_info.iterations, fit->admm_info.iterations);
  ASSERT_EQ(direct->model.log_intensity().size(),
            fit->model.log_intensity().size());
  for (std::size_t i = 0; i < fit->model.log_intensity().size(); ++i) {
    EXPECT_EQ(direct->model.log_intensity()[i], fit->model.log_intensity()[i])
        << "log intensity bin " << i;
  }
  ASSERT_EQ(direct->forecast.rates().size(), fit->forecast.rates().size());
  for (std::size_t i = 0; i < fit->forecast.rates().size(); ++i) {
    EXPECT_EQ(direct->forecast.rates()[i], fit->forecast.rates()[i])
        << "forecast bin " << i;
  }
}

TEST(TrainingSession, WarmRefitConvergesFasterToTheSameModel) {
  const double train_horizon = 4.0 * kPeriodS;
  const double extension = 1.0 * kPeriodS;
  const auto full = MakeSineTrace(22, train_horizon + extension, 1.0);
  auto options = MakePipelineOptions(2.0 * kPeriodS);
  // Let ADMM run to tight tolerances so "same minimizer" is well-defined
  // (the convex objective has a unique optimum; a loosely stopped fit is
  // only near it). ε_abs = ε_rel = 1e-5 takes 100–160 iterations here; the
  // cap only guards against a regression that stops converging.
  options.admm.abs_tolerance = 1e-5;
  options.admm.rel_tolerance = 1e-5;
  options.admm.max_iterations = 50000;

  auto [head, tail] = full.SplitAt(train_horizon);

  auto session = train::TrainingSession::FromTrace(head, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto cold = session->Fit();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->admm_info.converged);
  EXPECT_TRUE(session->has_warm_start());

  // Append one more cycle of arrivals and refit warm. SplitAt rebases the
  // tail to t = 0, so shift it back into session time.
  std::vector<double> continuation = tail.ArrivalTimes();
  for (double& t : continuation) t += train_horizon;
  ASSERT_TRUE(
      session->AppendArrivals(continuation, train_horizon + extension).ok());
  EXPECT_DOUBLE_EQ(session->window_end(), train_horizon + extension);
  auto warm = session->Refit();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(warm->admm_info.converged);

  // A cold fit of the identical extended window, for comparison.
  auto cold_session = train::TrainingSession::FromTrace(full, options);
  ASSERT_TRUE(cold_session.ok());
  auto cold_full = cold_session->Fit();
  ASSERT_TRUE(cold_full.ok());
  ASSERT_TRUE(cold_full->admm_info.converged);

  EXPECT_LE(warm->admm_info.iterations, cold_full->admm_info.iterations)
      << "warm start must not slow convergence down";
  // Both runs satisfied the same tolerances on the same convex objective:
  // the models agree to within solver precision.
  ASSERT_EQ(warm->model.log_intensity().size(),
            cold_full->model.log_intensity().size());
  for (std::size_t i = 0; i < warm->model.log_intensity().size(); ++i) {
    EXPECT_NEAR(warm->model.log_intensity()[i],
                cold_full->model.log_intensity()[i], 1e-2)
        << "log intensity bin " << i;
  }
}

TEST(TrainingSession, WarmRefitTakesFewerIterationsThanColdAtDefaults) {
  // The freshness loop's shape: fit four cycles, serve half a cycle more,
  // refit. At the default stopping rule, warm refits (previous iterate and
  // final ρ) must beat cold fits of the same windows in total iterations.
  // Per seed the two can tie or swap when the detected period moves
  // between the fits; the total is the contract.
  const double train_horizon = 4.0 * kPeriodS;
  const double extension = 0.5 * kPeriodS;
  const auto options = MakePipelineOptions(2.0 * kPeriodS);
  std::size_t warm_total = 0, cold_total = 0;
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    const auto full = MakeSineTrace(seed, train_horizon + extension, 1.0);
    auto [head, tail] = full.SplitAt(train_horizon);
    auto session = train::TrainingSession::FromTrace(head, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE(session->Fit().ok());
    std::vector<double> continuation = tail.ArrivalTimes();
    for (double& t : continuation) t += train_horizon;
    ASSERT_TRUE(
        session->AppendArrivals(continuation, train_horizon + extension).ok());
    auto warm = session->Refit();
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();

    auto cold_session = train::TrainingSession::FromTrace(full, options);
    ASSERT_TRUE(cold_session.ok());
    auto cold = cold_session->Fit();
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();

    EXPECT_TRUE(warm->admm_info.converged) << "seed " << seed;
    EXPECT_TRUE(cold->admm_info.converged) << "seed " << seed;
    warm_total += warm->admm_info.iterations;
    cold_total += cold->admm_info.iterations;
  }
  EXPECT_LT(warm_total, cold_total);
}

TEST(TrainingSession, SnapshotCarriesWarmRhoAndReadsVersionOne) {
  const auto trace = MakeSineTrace(25, 4.0 * kPeriodS, 1.0);
  const auto options = MakePipelineOptions(kPeriodS);
  auto session = train::TrainingSession::FromTrace(trace, options);
  ASSERT_TRUE(session.ok());
  auto fitted = session->Fit();
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  ASSERT_NE(fitted->admm_info.rho, options.admm.rho)
      << "fixture must move ρ for this test to mean anything";

  const auto round_trip = [&options](persist::Writer* writer)
      -> Result<train::TrainingSession> {
    std::stringstream buffer;
    RS_RETURN_NOT_OK(writer->Finish(buffer));
    RS_ASSIGN_OR_RETURN(auto reader, persist::Reader::FromStream(buffer));
    return train::TrainingSession::Deserialize(&reader, options);
  };

  // Current layout: the restored session refits exactly like the live one,
  // warm ρ included.
  persist::Writer writer;
  session->Serialize(&writer);
  auto restored = round_trip(&writer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto live_refit = session->Refit();
  auto restored_refit = restored->Refit();
  ASSERT_TRUE(live_refit.ok() && restored_refit.ok());
  EXPECT_EQ(live_refit->admm_info.iterations,
            restored_refit->admm_info.iterations);
  EXPECT_EQ(live_refit->forecast.rates(), restored_refit->forecast.rates());

  // A v1 payload (no ρ) still loads; its refit warm-starts the iterate
  // from the configured ρ.
  persist::Writer v1;
  v1.BeginSection(persist::kTagTrainSession);
  v1.WriteU32(1);
  v1.WriteDouble(fitted->counts.start);
  v1.WriteDouble(fitted->counts.dt);
  v1.WriteDoubleVector(fitted->counts.counts);
  v1.WriteDoubleVector(fitted->model.log_intensity());
  v1.WriteU64(1);
  v1.WriteU64(fitted->admm_info.iterations);
  v1.EndSection();
  auto legacy = round_trip(&v1);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  ASSERT_TRUE(legacy->has_warm_start());
  auto legacy_refit = legacy->Refit();
  ASSERT_TRUE(legacy_refit.ok()) << legacy_refit.status().ToString();
  auto expected = core::TrainRobustScalerFromCounts(
      fitted->counts, options, &fitted->model.log_intensity());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(legacy_refit->admm_info.iterations,
            expected->admm_info.iterations);
  EXPECT_EQ(legacy_refit->forecast.rates(), expected->forecast.rates());
}

TEST(TrainingSession, RejectsVersionZeroSection) {
  // Version 0 was never written by any build: a section carrying it is
  // corrupt input, rejected like every other section reader does.
  persist::Writer writer;
  writer.BeginSection(persist::kTagTrainSession);
  writer.WriteU32(0);
  writer.WriteDouble(0.0);
  writer.WriteDouble(60.0);
  writer.WriteDoubleVector({1.0, 2.0});
  writer.WriteDoubleVector({});
  writer.WriteU64(0);
  writer.WriteU64(0);
  writer.EndSection();
  std::stringstream buffer;
  ASSERT_TRUE(writer.Finish(buffer).ok());
  auto reader = persist::Reader::FromStream(buffer);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto session = train::TrainingSession::Deserialize(
      &*reader, MakePipelineOptions(kPeriodS));
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument)
      << session.status().ToString();
}

/// A hand-built v2 TSES record over a three-bin window.
Result<train::TrainingSession> LoadSessionRecord(double start, double dt) {
  persist::Writer writer;
  writer.BeginSection(persist::kTagTrainSession);
  writer.WriteU32(2);
  writer.WriteDouble(start);
  writer.WriteDouble(dt);
  writer.WriteDoubleVector({1.0, 2.0, 3.0});
  writer.WriteDoubleVector({});
  writer.WriteU64(0);
  writer.WriteU64(0);
  writer.WriteDouble(0.0);
  writer.EndSection();
  RS_ASSIGN_OR_RETURN(auto reader,
                      persist::Reader::FromBytes(std::string(writer.Finish())));
  return train::TrainingSession::Deserialize(&reader,
                                             MakePipelineOptions(kPeriodS));
}

TEST(TrainingSession, HandBuiltRecordLoads) {
  auto session = LoadSessionRecord(0.0, 60.0);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->window_end(), 180.0);
  EXPECT_TRUE(session->AppendArrival(200.0).ok());
}

TEST(TrainingSession, RejectsANonFiniteStart) {
  // AppendArrival casts (t − start) / dt to a bin index: ±inf or NaN there
  // is undefined behaviour.
  auto session =
      LoadSessionRecord(std::numeric_limits<double>::infinity(), 60.0);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(session.status().message().find("start"), std::string::npos)
      << session.status().ToString();
}

TEST(TrainingSession, RejectsANonFiniteDt) {
  auto session =
      LoadSessionRecord(0.0, std::numeric_limits<double>::infinity());
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(session.status().message().find("dt"), std::string::npos)
      << session.status().ToString();
}

TEST(TrainingSession, RefitIsDeterministic) {
  const auto trace = MakeSineTrace(23, 4.0 * kPeriodS, 1.0);
  const auto options = MakePipelineOptions(kPeriodS);

  auto session = train::TrainingSession::FromTrace(trace, options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Fit().ok());

  train::TrainingSession a = *session;
  train::TrainingSession b = *session;
  auto fit_a = a.Refit();
  auto fit_b = b.Refit();
  ASSERT_TRUE(fit_a.ok());
  ASSERT_TRUE(fit_b.ok());
  EXPECT_EQ(fit_a->admm_info.iterations, fit_b->admm_info.iterations);
  ASSERT_EQ(fit_a->forecast.rates().size(), fit_b->forecast.rates().size());
  for (std::size_t i = 0; i < fit_a->forecast.rates().size(); ++i) {
    EXPECT_EQ(fit_a->forecast.rates()[i], fit_b->forecast.rates()[i]);
  }
}

TEST(TrainingSession, SingleEventAppendMatchesBatchAppend) {
  const double train_horizon = 3.0 * kPeriodS;
  const double extension = kPeriodS;
  const auto full = MakeSineTrace(24, train_horizon + extension, 1.0);
  const auto options = MakePipelineOptions(kPeriodS);
  auto [head, tail] = full.SplitAt(train_horizon);

  auto batch = train::TrainingSession::FromTrace(head, options);
  auto single = train::TrainingSession::FromTrace(head, options);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(single.ok());

  const double up_to = train_horizon + extension;
  std::vector<double> continuation = tail.ArrivalTimes();
  for (double& t : continuation) t += train_horizon;
  ASSERT_TRUE(batch->AppendArrivals(continuation, up_to).ok());
  for (double t : continuation) {
    ASSERT_TRUE(single->AppendArrival(t).ok());
  }
  ASSERT_TRUE(single->ExtendTo(up_to).ok());

  EXPECT_EQ(batch->bins(), single->bins());
  EXPECT_DOUBLE_EQ(batch->window_end(), single->window_end());
  auto fit_batch = batch->Refit();
  auto fit_single = single->Refit();
  ASSERT_TRUE(fit_batch.ok());
  ASSERT_TRUE(fit_single.ok());
  ASSERT_EQ(fit_batch->forecast.rates().size(),
            fit_single->forecast.rates().size());
  for (std::size_t i = 0; i < fit_batch->forecast.rates().size(); ++i) {
    EXPECT_EQ(fit_batch->forecast.rates()[i], fit_single->forecast.rates()[i])
        << "forecast bin " << i;
  }
}

/// The batch refit core::RefittingPolicy used before it kept a session:
/// every refit re-bins the training trace plus every observed arrival.
class BatchRefitReference : public sim::Autoscaler {
 public:
  BatchRefitReference(workload::Trace training,
                      stats::DurationDistribution pending,
                      core::RefittingOptions options)
      : training_(std::move(training)), pending_(pending), options_(options) {}
  const char* name() const override { return "batch-refit"; }
  double planning_interval() const override {
    return options_.scaler.planning_interval;
  }
  double history_requirement() const override {
    return sim::kUnboundedHistory;
  }
  sim::ScalingAction Initialize(const sim::SimContext& ctx) override {
    Refit(ctx.now, {});
    return delegate_->Initialize(ctx);
  }
  sim::ScalingAction OnPlanningTick(const sim::SimContext& ctx) override {
    if (ctx.now - last_refit_ >= options_.refit_interval) {
      Refit(ctx.now, *ctx.arrival_history);
    }
    return delegate_->OnPlanningTick(ctx);
  }
  std::size_t refits() const { return refits_; }

 private:
  void Refit(double now, const std::vector<double>& observed) {
    workload::Trace extended = training_;
    const double offset = training_.horizon();
    for (double t : observed) extended.Append({t + offset, 0.0});
    extended.set_horizon(offset + now);
    extended.SortByArrival();
    auto trained = core::TrainRobustScaler(extended, options_.pipeline);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    core::SequentialScalerOptions scaler = options_.scaler;
    scaler.forecast_origin = now;
    delegate_ = std::make_unique<core::RobustScalerPolicy>(trained->forecast,
                                                           pending_, scaler);
    last_refit_ = now;
    ++refits_;
  }

  workload::Trace training_;
  stats::DurationDistribution pending_;
  core::RefittingOptions options_;
  std::unique_ptr<core::RobustScalerPolicy> delegate_;
  double last_refit_ = 0.0;
  std::size_t refits_ = 0;
};

TEST(RefittingPolicy, SessionRefitsMatchBatchRefitsBitwise) {
  // Arrivals sit exactly on window ends: one training arrival at the
  // training horizon and observed arrivals at the refit instants, where
  // the window end is a whole number of bins. Both binnings drop such an
  // arrival at that refit and count it at the next.
  const double train_horizon = 3.0 * kPeriodS;
  const double serve_horizon = 2.0 * kPeriodS;
  const double refit_interval = 300.0;
  auto base_train = MakeSineTrace(25, train_horizon, 1.0);
  std::vector<workload::Query> train_queries = base_train.queries();
  train_queries.push_back({train_horizon, 1.0});
  const workload::Trace train(std::move(train_queries), train_horizon);
  auto base_serve = MakeSineTrace(26, serve_horizon, 1.0, kPeriodS,
                                  serve_horizon / 3.0, 3.0);
  std::vector<workload::Query> serve_queries = base_serve.queries();
  for (double t = refit_interval; t < serve_horizon; t += refit_interval) {
    serve_queries.push_back({t, 1.0});
  }
  const workload::Trace serve(std::move(serve_queries), serve_horizon);

  core::RefittingOptions options;
  options.refit_interval = refit_interval;
  options.pipeline = MakePipelineOptions(serve_horizon);
  options.scaler.alpha = 0.1;
  options.scaler.mc_samples = 50;
  options.scaler.planning_interval = 5.0;
  const auto pending = stats::DurationDistribution::Deterministic(13.0);
  sim::EngineOptions engine;
  engine.pending = pending;

  core::RefittingPolicy session_policy(train, pending, options);
  BatchRefitReference batch_policy(train, pending, options);
  auto with_session = sim::Simulate(serve, &session_policy, engine);
  auto with_batch = sim::Simulate(serve, &batch_policy, engine);
  ASSERT_TRUE(with_session.ok()) << with_session.status().ToString();
  ASSERT_TRUE(with_batch.ok()) << with_batch.status().ToString();
  EXPECT_EQ(session_policy.refit_count(), batch_policy.refits());
  EXPECT_GE(session_policy.refit_count(), 4u);
  ASSERT_EQ(with_session->instances.size(), with_batch->instances.size());
  for (std::size_t i = 0; i < with_batch->instances.size(); ++i) {
    EXPECT_EQ(with_session->instances[i].creation_time,
              with_batch->instances[i].creation_time)
        << "instance " << i;
  }
  ASSERT_EQ(with_session->queries.size(), with_batch->queries.size());
  for (std::size_t i = 0; i < with_batch->queries.size(); ++i) {
    EXPECT_EQ(with_session->queries[i].hit, with_batch->queries[i].hit)
        << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// core::FitNhpp warm start.
// ---------------------------------------------------------------------------

TEST(AdmmWarmStart, PreservesTheMinimizerAndFallsBackPerBin) {
  std::vector<double> counts;
  for (std::size_t i = 0; i < 60; ++i) {
    counts.push_back(30.0 + 12.0 * std::sin(2.0 * M_PI *
                                            static_cast<double>(i % 20) /
                                            20.0));
  }
  core::NhppConfig config;
  config.dt = kDt;
  config.period = 20;
  core::AdmmOptions options;
  options.max_iterations = 20000;

  core::AdmmInfo cold_info;
  auto cold = core::FitNhpp(counts, config, options, &cold_info);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold_info.converged);
  ASSERT_GT(cold_info.iterations, 1u);

  // Warm-starting at the solution must not change the minimizer and must
  // not slow the outer loop down. (Only the primal iterate is seeded —
  // duals restart at zero — so the iteration count does not collapse; the
  // payoff of warm starts is in the per-iteration subproblem solves.)
  core::AdmmOptions warm_options = options;
  warm_options.warm_start = &cold->log_intensity();
  core::AdmmInfo warm_info;
  auto warm = core::FitNhpp(counts, config, warm_options, &warm_info);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(warm_info.converged);
  EXPECT_LE(warm_info.iterations, cold_info.iterations);
  ASSERT_EQ(cold->log_intensity().size(), warm->log_intensity().size());
  for (std::size_t i = 0; i < warm->log_intensity().size(); ++i) {
    EXPECT_NEAR(cold->log_intensity()[i], warm->log_intensity()[i], 1e-2);
  }

  // A warm vector shorter than the series (a refit after appending bins)
  // with a non-finite entry must fall back to the default start per bin,
  // not poison the fit.
  std::vector<double> partial(cold->log_intensity().begin(),
                              cold->log_intensity().begin() + 40);
  partial[7] = std::numeric_limits<double>::quiet_NaN();
  core::AdmmOptions partial_options = options;
  partial_options.warm_start = &partial;
  core::AdmmInfo partial_info;
  auto patched = core::FitNhpp(counts, config, partial_options, &partial_info);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  ASSERT_TRUE(partial_info.converged);
  for (std::size_t i = 0; i < patched->log_intensity().size(); ++i) {
    ASSERT_TRUE(std::isfinite(patched->log_intensity()[i])) << "bin " << i;
    EXPECT_NEAR(cold->log_intensity()[i], patched->log_intensity()[i], 1e-2);
  }
}

// ---------------------------------------------------------------------------
// ts::DriftDetector.
// ---------------------------------------------------------------------------

TEST(DriftDetector, FiresOnRateShift) {
  ts::DriftDetectorOptions options;
  auto detector = ts::DriftDetector::Make(
      options, std::vector<double>(40, 1.0), /*dt=*/1.0, /*period_bins=*/0,
      /*origin=*/0.0);
  ASSERT_TRUE(detector.ok());
  // 4 events/s against an expected 1/s: x = 3 per bin, so the CUSUM crosses
  // threshold 8 right after the 5-bin warmup.
  for (double t = 0.0; t < 20.0; t += 0.25) detector->Observe(t);
  detector->AdvanceTo(20.0);
  ASSERT_TRUE(detector->fired());
  EXPECT_EQ(ts::DriftKind::kRateShift, detector->kind());
  EXPECT_GT(detector->fired_time(), 0.0);
  EXPECT_LE(detector->fired_time(), 10.0) << "latch should be prompt";
}

TEST(DriftDetector, SilentWhenTheStreamMatchesTheForecast) {
  // Integer expected rates at dt = 1 so a deterministic stream can match
  // the forecast exactly: every residual is 0 and the phase profiles
  // correlate perfectly.
  const std::vector<double> profile = {2.0, 3.0, 4.0, 3.0};
  std::vector<double> expected;
  for (std::size_t i = 0; i < 40; ++i) expected.push_back(profile[i % 4]);
  ts::DriftDetectorOptions options;
  auto detector = ts::DriftDetector::Make(options, expected, /*dt=*/1.0,
                                          /*period_bins=*/4, /*origin=*/0.0);
  ASSERT_TRUE(detector.ok());
  for (std::size_t bin = 0; bin < 40; ++bin) {
    const int events = static_cast<int>(expected[bin]);
    for (int e = 0; e < events; ++e) {
      detector->Observe(static_cast<double>(bin) + 0.1 * (e + 1));
    }
  }
  detector->AdvanceTo(40.0);
  EXPECT_FALSE(detector->fired());
  EXPECT_EQ(40u, detector->bins_closed());
  EXPECT_DOUBLE_EQ(0.0, detector->profile_score());
}

TEST(DriftDetector, FiresOnPeriodicityBreakNotRateShift) {
  // Same mean, inverted phase: the level CUSUM would eventually notice,
  // but with its threshold parked high only the profile check can latch —
  // proving the shape change is what fires.
  const std::vector<double> profile = {1.0, 4.0, 1.0, 4.0};
  std::vector<double> expected;
  for (std::size_t i = 0; i < 40; ++i) expected.push_back(profile[i % 4]);
  ts::DriftDetectorOptions options;
  options.threshold = 1e6;
  auto detector = ts::DriftDetector::Make(options, expected, /*dt=*/1.0,
                                          /*period_bins=*/4, /*origin=*/0.0);
  ASSERT_TRUE(detector.ok());
  for (std::size_t bin = 0; bin < 40; ++bin) {
    // Anti-phase observation: 4 where 1 was trained, 1 where 4 was.
    const int events = static_cast<int>(profile[(bin + 1) % 4]);
    for (int e = 0; e < events; ++e) {
      detector->Observe(static_cast<double>(bin) + 0.1 * (e + 1));
    }
  }
  detector->AdvanceTo(40.0);
  ASSERT_TRUE(detector->fired());
  EXPECT_EQ(ts::DriftKind::kPeriodicityBreak, detector->kind());
}

TEST(DriftDetector, RejectsVersionZeroSection) {
  // A well-formed v1 payload behind a version-0 header: only the version
  // is wrong, and it alone must make the reader refuse.
  persist::Writer writer;
  writer.BeginSection(persist::kTagDriftDetector);
  writer.WriteU32(0);
  writer.WriteDouble(1.0);               // dt
  writer.WriteDouble(0.0);               // origin
  writer.WriteU64(2);                    // period
  writer.WriteDoubleVector({2.0, 3.0});  // expected
  writer.WriteU64(0);                    // bins closed
  writer.WriteDouble(0.0);               // open count
  writer.WriteDouble(0.0);               // g_up
  writer.WriteDouble(0.0);               // g_down
  writer.WriteDoubleVector({0.0, 0.0});  // ring
  writer.WriteDouble(0.0);               // correlation CUSUM
  writer.WriteU8(0);                     // kind
  writer.WriteDouble(0.0);               // fired time
  writer.EndSection();
  std::stringstream buffer;
  ASSERT_TRUE(writer.Finish(buffer).ok());
  auto reader = persist::Reader::FromStream(buffer);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto detector =
      ts::DriftDetector::Deserialize(&*reader, ts::DriftDetectorOptions{});
  ASSERT_FALSE(detector.ok());
  EXPECT_EQ(detector.status().code(), StatusCode::kInvalidArgument)
      << detector.status().ToString();
}

/// A hand-built v1 DRFT record: a two-bin reference of period 2, nothing
/// observed yet, with one field overridden by the caller.
struct DetectorRecord {
  double dt = 1.0;
  double origin = 0.0;
  std::vector<double> expected = {2.0, 3.0};
  std::uint8_t kind = 0;
};

Result<ts::DriftDetector> LoadDetectorRecord(const DetectorRecord& record) {
  persist::Writer writer;
  writer.BeginSection(persist::kTagDriftDetector);
  writer.WriteU32(1);
  writer.WriteDouble(record.dt);
  writer.WriteDouble(record.origin);
  writer.WriteU64(2);  // period
  writer.WriteDoubleVector(record.expected);
  writer.WriteU64(0);                    // bins closed
  writer.WriteDouble(0.0);               // open count
  writer.WriteDouble(0.0);               // g_up
  writer.WriteDouble(0.0);               // g_down
  writer.WriteDoubleVector({0.0, 0.0});  // ring
  writer.WriteDouble(0.0);               // correlation CUSUM
  writer.WriteU8(record.kind);
  writer.WriteDouble(0.0);  // fired time
  writer.EndSection();
  RS_ASSIGN_OR_RETURN(auto reader,
                      persist::Reader::FromBytes(std::string(writer.Finish())));
  return ts::DriftDetector::Deserialize(&reader, ts::DriftDetectorOptions{});
}

TEST(DriftDetector, HandBuiltRecordLoads) {
  // The baseline the rejection cases below each change one field of.
  auto detector = LoadDetectorRecord({});
  ASSERT_TRUE(detector.ok()) << detector.status().ToString();
  detector->Observe(0.5);
  detector->AdvanceTo(3.0);
  EXPECT_EQ(detector->bins_closed(), 3u);
}

TEST(DriftDetector, RejectsAKindPastPeriodicityBreak) {
  DetectorRecord record;
  record.kind = static_cast<std::uint8_t>(ts::DriftKind::kPeriodicityBreak) + 1;
  auto detector = LoadDetectorRecord(record);
  ASSERT_FALSE(detector.ok());
  EXPECT_EQ(detector.status().code(), StatusCode::kInvalidArgument);
}

TEST(DriftDetector, RejectsANonFiniteOrigin) {
  // With origin −inf, AdvanceTo's bin-closing loop never ends.
  DetectorRecord record;
  record.origin = -std::numeric_limits<double>::infinity();
  auto detector = LoadDetectorRecord(record);
  ASSERT_FALSE(detector.ok());
  EXPECT_EQ(detector.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(detector.status().message().find("origin"), std::string::npos)
      << detector.status().ToString();
}

TEST(DriftDetector, RejectsExpectedRatesMakeRefuses) {
  DetectorRecord record;
  record.expected = {2.0, -1.0};
  ASSERT_FALSE(ts::DriftDetector::Make(ts::DriftDetectorOptions{},
                                       record.expected, record.dt, 2,
                                       record.origin)
                   .ok());
  auto detector = LoadDetectorRecord(record);
  ASSERT_FALSE(detector.ok());
  EXPECT_EQ(detector.status().code(), StatusCode::kInvalidArgument);
}

TEST(DriftDetector, SnapshotRestoreContinuesByteIdentical) {
  const std::vector<double> profile = {2.0, 3.0, 5.0, 3.0};
  std::vector<double> expected;
  for (std::size_t i = 0; i < 24; ++i) expected.push_back(profile[i % 4]);
  ts::DriftDetectorOptions options;
  auto original = ts::DriftDetector::Make(options, expected, /*dt=*/1.0,
                                          /*period_bins=*/4, /*origin=*/0.0);
  ASSERT_TRUE(original.ok());

  // A deterministic but drifting stream (slowly rising rate), cut mid-bin.
  std::vector<double> events;
  for (std::size_t bin = 0; bin < 30; ++bin) {
    const int count = 2 + static_cast<int>(bin / 6);
    for (int e = 0; e < count; ++e) {
      events.push_back(static_cast<double>(bin) + 0.2 * (e + 1));
    }
  }
  const std::size_t cut = events.size() / 2;
  for (std::size_t i = 0; i < cut; ++i) original->Observe(events[i]);

  persist::Writer writer;
  original->Serialize(&writer);
  std::stringstream buffer;
  ASSERT_TRUE(writer.Finish(buffer).ok());
  auto reader = persist::Reader::FromStream(buffer);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto restored = ts::DriftDetector::Deserialize(&*reader, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  for (std::size_t i = cut; i < events.size(); ++i) {
    original->Observe(events[i]);
    restored->Observe(events[i]);
  }
  original->AdvanceTo(30.0);
  restored->AdvanceTo(30.0);

  EXPECT_EQ(original->bins_closed(), restored->bins_closed());
  EXPECT_EQ(original->score_up(), restored->score_up());
  EXPECT_EQ(original->score_down(), restored->score_down());
  EXPECT_EQ(original->profile_score(), restored->profile_score());
  EXPECT_EQ(original->fired(), restored->fired());
  EXPECT_EQ(original->kind(), restored->kind());
  EXPECT_EQ(original->fired_time(), restored->fired_time());
}

// ---------------------------------------------------------------------------
// Fleet freshness loop end-to-end.
// ---------------------------------------------------------------------------

struct FleetDrive {
  /// Per-tenant actions in registration order, flattened across batches.
  std::vector<std::vector<sim::ScalingAction>> actions;
  /// (plan time, per-tenant action) for boundary-aligned comparisons.
  std::vector<std::pair<double, std::vector<sim::ScalingAction>>> batches;
};

/// Drives `fleet` with per-tenant event streams on the PlanAll cadence:
/// events strictly before each tick feed first, then the batch plans.
/// `from` lets a control fleet enter mid-timeline (its first tick is the
/// first multiple of kTick at or after `from`).
FleetDrive DriveFleet(
    ScalerFleet* fleet, const std::vector<std::string>& tenants,
    const std::vector<std::pair<double, std::size_t>>& events, double horizon,
    double from = 0.0,
    const std::function<void(ScalerFleet*, double)>& at_tick = nullptr) {
  FleetDrive drive;
  drive.actions.resize(tenants.size());
  std::size_t next_event = 0;
  const auto first_tick =
      static_cast<std::size_t>(std::ceil(from / kTick - 1e-9));
  for (std::size_t k = std::max<std::size_t>(first_tick, 1);
       k * kTick <= horizon; ++k) {
    const double now = static_cast<double>(k) * kTick;
    while (next_event < events.size() && events[next_event].first < now) {
      const auto& [t, tenant] = events[next_event];
      if (t >= from) {
        auto outcome = fleet->Observe(tenants[tenant], t);
        EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
      }
      ++next_event;
    }
    if (at_tick) at_tick(fleet, now);
    auto batch = fleet->PlanAll(now);
    std::vector<sim::ScalingAction> row;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(batch[i].status.ok())
          << tenants[i] << " at t=" << now << ": "
          << batch[i].status.ToString();
      drive.actions[i].push_back(batch[i].action);
      row.push_back(batch[i].action);
    }
    drive.batches.emplace_back(now, std::move(row));
  }
  return drive;
}

std::vector<std::pair<double, std::size_t>> MergeEvents(
    const std::vector<workload::Trace>& traces) {
  std::vector<std::pair<double, std::size_t>> events;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    for (double t : traces[i].ArrivalTimes()) events.emplace_back(t, i);
  }
  std::sort(events.begin(), events.end());
  return events;
}

api::FreshnessPolicy MakePolicy(double forecast_horizon) {
  api::FreshnessPolicy policy;
  policy.pipeline = MakePipelineOptions(forecast_horizon);
  policy.min_retrain_interval = 60.0;
  policy.retrain_workers = 0;  // Synchronous: deterministic swap timing.
  return policy;
}

TEST(FleetFreshness, DriftTriggersRetrainAndSwapWithoutDisturbingNeighbors) {
  const double train_horizon = 4.0 * kPeriodS;
  const double serve_horizon = 2.0 * kPeriodS;
  const double shift_at = serve_horizon / 3.0;
  const std::vector<std::string> tenants = {"shifty", "steady"};
  const auto train_a = MakeSineTrace(31, train_horizon, 1.0);
  const auto train_b = MakeSineTrace(32, train_horizon, 1.0);
  const std::vector<workload::Trace> serve = {
      MakeSineTrace(41, serve_horizon, 1.0, kPeriodS, shift_at, 4.0),
      MakeSineTrace(42, serve_horizon, 1.0),
  };
  const auto events = MergeEvents(serve);

  ScalerFleet fleet(0);
  ASSERT_TRUE(fleet.EnableFreshness(MakePolicy(serve_horizon)).ok());
  ASSERT_TRUE(
      fleet.Register("shifty", BuildScaler(train_a, serve_horizon,
                                           "robust_hp:target=0.9"))
          .ok());
  ASSERT_TRUE(
      fleet.Register("steady", BuildScaler(train_b, serve_horizon,
                                           "robust_hp:target=0.9"))
          .ok());

  ScalerFleet control(0);
  ASSERT_TRUE(
      control.Register("shifty", BuildScaler(train_a, serve_horizon,
                                             "robust_hp:target=0.9"))
          .ok());
  ASSERT_TRUE(
      control.Register("steady", BuildScaler(train_b, serve_horizon,
                                             "robust_hp:target=0.9"))
          .ok());

  const auto fresh_run = DriveFleet(&fleet, tenants, events, serve_horizon);
  const auto control_run =
      DriveFleet(&control, tenants, events, serve_horizon);

  auto shifty = fleet.Freshness("shifty");
  ASSERT_TRUE(shifty.ok()) << shifty.status().ToString();
  EXPECT_TRUE(shifty->enabled);
  EXPECT_GE(shifty->drift_events, 1u) << "4x regime shift must latch";
  EXPECT_GE(shifty->retrains_completed, 1u);
  EXPECT_EQ(0u, shifty->retrain_failures);
  EXPECT_GE(shifty->swaps_applied, 1u);
  EXPECT_GT(shifty->last_swap_time, shift_at)
      << "the swap can only follow the shift";
  EXPECT_GT(shifty->model_origin, 0.0)
      << "a swapped model's forecast origin moves to its window end";

  auto steady = fleet.Freshness("steady");
  ASSERT_TRUE(steady.ok());
  EXPECT_EQ(0u, steady->drift_events) << "stationary tenant must stay quiet";
  EXPECT_EQ(0u, steady->swaps_applied);

  // The freshness loop ran entirely off the steady tenant's path: its
  // action stream is byte-identical to the freshness-free control fleet.
  ExpectActionsIdentical(control_run.actions[1], fresh_run.actions[1],
                         "steady tenant vs control");
}

TEST(FleetFreshness, LoopIsByteIdenticalAcrossWorkers) {
  const double train_horizon = 4.0 * kPeriodS;
  const double serve_horizon = 1.5 * kPeriodS;
  const double shift_at = serve_horizon / 3.0;
  const std::vector<std::string> tenants = {"shifty", "steady"};
  const auto train_a = MakeSineTrace(33, train_horizon, 1.0);
  const auto train_b = MakeSineTrace(34, train_horizon, 1.0);
  const std::vector<workload::Trace> serve = {
      MakeSineTrace(43, serve_horizon, 1.0, kPeriodS, shift_at, 4.0),
      MakeSineTrace(44, serve_horizon, 1.0),
  };
  const auto events = MergeEvents(serve);

  auto run = [&](std::size_t workers) {
    ScalerFleet fleet(workers);
    EXPECT_TRUE(fleet.EnableFreshness(MakePolicy(serve_horizon)).ok());
    EXPECT_TRUE(
        fleet.Register("shifty", BuildScaler(train_a, serve_horizon,
                                             "robust_hp:target=0.9"))
            .ok());
    EXPECT_TRUE(
        fleet.Register("steady", BuildScaler(train_b, serve_horizon,
                                             "robust_hp:target=0.9"))
            .ok());
    auto drive = DriveFleet(&fleet, tenants, events, serve_horizon);
    auto fresh = fleet.Freshness("shifty");
    EXPECT_TRUE(fresh.ok());
    EXPECT_GE(fresh->swaps_applied, 1u);
    return drive;
  };

  // The baseline's own worker count runs again too: a rerun on the same
  // thread must not depend on anything the first run left behind.
  const auto baseline = run(0);
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    const auto got = run(workers);
    const std::string label = "workers=" + std::to_string(workers);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      ExpectActionsIdentical(baseline.actions[i], got.actions[i],
                             label + ", tenant " + tenants[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Mid-plan hot-swap parity: for every registry strategy and worker count,
// a ReplaceModelAtNextPlan issued between plan boundaries leaves the
// in-flight plan byte-identical to a never-swapped control, and every
// post-boundary plan byte-identical to a control fleet that served the
// fresh model from the boundary on.
// ---------------------------------------------------------------------------

TEST(HotSwapParity, DeferredSwapTearsNothingAcrossStrategiesWorkers) {
  const double train_horizon = 4.0 * kPeriodS;
  const double serve_horizon = 400.0;
  const double request_at = 201.0;              // Between boundaries.
  const double boundary = 202.0;                // First plan after request.
  const std::vector<std::string> tenants = {"tenant"};
  const auto train_old = MakeSineTrace(51, train_horizon, 1.0);
  const auto train_new = MakeSineTrace(52, train_horizon, 1.4);
  const std::vector<workload::Trace> serve = {
      MakeSineTrace(53, serve_horizon, 1.2)};
  const auto events = MergeEvents(serve);

  const std::vector<const char*> specs = {
      "backup_pool:pool_size=2",
      "adaptive_backup_pool:multiplier=20,update_interval=30,"
      "estimate_window=60",
      "robust_hp:target=0.9",
      "robust_rt:target=2.0",
      "robust_cost:target=5.0",
  };

  for (const char* spec : specs) {
    // Control 1: never swapped.
    ScalerFleet control_old(0);
    ASSERT_TRUE(
        control_old
            .Register("tenant", BuildScaler(train_old, serve_horizon, spec))
            .ok());
    const auto unswapped =
        DriveFleet(&control_old, tenants, events, serve_horizon);

    // Control 2: the fresh model serving from the boundary on, seeing
    // only post-boundary traffic (exactly what a swapped tenant sees).
    ScalerFleet control_new(0);
    ASSERT_TRUE(
        control_new
            .Register("tenant", BuildScaler(train_new, serve_horizon, spec))
            .ok());
    const auto fresh_only = DriveFleet(&control_new, tenants, events,
                                       serve_horizon, /*from=*/boundary);

    for (std::size_t workers :
         {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
      ScalerFleet fleet(workers);
      ASSERT_TRUE(
          fleet.Register("tenant", BuildScaler(train_old, serve_horizon, spec))
              .ok());
      bool requested = false;
      const auto swapped = DriveFleet(
          &fleet, tenants, events, serve_horizon, /*from=*/0.0,
          [&](ScalerFleet* f, double now) {
            if (!requested && now > request_at) {
              requested = true;
              ASSERT_TRUE(
                  f->ReplaceModelAtNextPlan(
                       "tenant", BuildScaler(train_new, serve_horizon, spec))
                      .ok());
            }
          });
      ASSERT_TRUE(requested);
      const std::string label =
          std::string(spec) + " workers=" + std::to_string(workers);

      // Split the swapped run at the boundary and compare both legs.
      std::vector<sim::ScalingAction> before, after;
      for (const auto& [now, row] : swapped.batches) {
        (now < boundary ? before : after).push_back(row[0]);
      }
      std::vector<sim::ScalingAction> control_before;
      for (const auto& [now, row] : unswapped.batches) {
        if (now < boundary) control_before.push_back(row[0]);
      }
      ExpectActionsIdentical(control_before, before,
                             label + ", pre-boundary vs unswapped control");
      ExpectActionsIdentical(fresh_only.actions[0], after,
                             label + ", post-boundary vs fresh control");
    }
  }
}

// ---------------------------------------------------------------------------
// ReplaceModel serving-config carry (retention widening, decision clock).
// ---------------------------------------------------------------------------

TEST(ReplaceModel, CarriesRetentionWideningAndDecisionClockPosition) {
  const double train_horizon = 4.0 * kPeriodS;
  const double serve_horizon = kPeriodS;
  const auto train = MakeSineTrace(61, train_horizon, 1.0);
  const auto serve = MakeSineTrace(62, serve_horizon, 1.0);

  sim::FakeDecisionClock old_clock(0.001);
  auto retiring = BuildScaler(train, serve_horizon, "robust_hp:target=0.9");
  sim::EngineOptions serving;
  serving.charge_decision_wall_time = true;
  serving.decision_clock = &old_clock;
  ASSERT_TRUE(retiring.ConfigureServing(serving).ok());

  ScalerFleet fleet(0);
  ASSERT_TRUE(fleet.Register("tenant", std::move(retiring)).ok());
  const double widened = 12345.0;
  ASSERT_TRUE(fleet.Find("tenant")->ConfigureHistoryRetention(widened).ok());

  std::size_t fed = 0;
  for (double t : serve.ArrivalTimes()) {
    if (t >= 100.0) break;
    ASSERT_TRUE(fleet.Observe("tenant", t).ok());
    ++fed;
  }
  ASSERT_GT(fed, 0u);
  ASSERT_TRUE(fleet.Plan("tenant", 100.0).ok());
  ASSERT_GT(old_clock.readings(), 0u);

  sim::FakeDecisionClock new_clock(0.001);
  auto replacement = BuildScaler(train, serve_horizon,
                                 "robust_hp:target=0.9");
  sim::EngineOptions new_serving;
  new_serving.charge_decision_wall_time = true;
  new_serving.decision_clock = &new_clock;
  ASSERT_TRUE(replacement.ConfigureServing(new_serving).ok());
  ASSERT_TRUE(fleet.ReplaceModel("tenant", std::move(replacement)).ok());

  // The retiring tenant's clock position was imported into the
  // replacement's clock, so charged decision time stays monotone.
  EXPECT_EQ(old_clock.readings(), new_clock.readings());

  // The retention widening survived the swap.
  const auto snapshot = fleet.Snapshot();
  ASSERT_EQ(1u, snapshot.per_tenant.size());
  EXPECT_GE(snapshot.per_tenant[0].second.history_retention, widened);

  // And the replacement keeps serving (charging through the new clock).
  const std::size_t readings_at_swap = new_clock.readings();
  ASSERT_TRUE(fleet.Plan("tenant", 102.0).ok());
  EXPECT_GT(new_clock.readings(), readings_at_swap);
}

TEST(FleetFreshness, DetachedTenantReportsNoFreshnessCounters) {
  // Freshness state exists only while the loop is attached: with freshness
  // off, neither kind of manual swap shows up in Freshness(), and enabling
  // the loop afterwards starts every counter at zero.
  const double horizon = 2.0 * kPeriodS;
  const auto train = MakeSineTrace(81, 4.0 * kPeriodS, 1.0);
  ScalerFleet fleet(0);
  ASSERT_TRUE(fleet.Register("now", BuildScaler(train, horizon, "backup_pool"))
                  .ok());
  ASSERT_TRUE(
      fleet.Register("later", BuildScaler(train, horizon, "backup_pool")).ok());
  ASSERT_TRUE(fleet.Plan("now", 10.0).ok());
  ASSERT_TRUE(fleet.Plan("later", 10.0).ok());
  ASSERT_TRUE(
      fleet.ReplaceModel("now", BuildScaler(train, horizon, "backup_pool"))
          .ok());
  ASSERT_TRUE(fleet
                  .ReplaceModelAtNextPlan(
                      "later", BuildScaler(train, horizon, "backup_pool"))
                  .ok());
  ASSERT_TRUE(fleet.Plan("later", 20.0).ok());
  for (const char* name : {"now", "later"}) {
    auto f = fleet.Freshness(name);
    ASSERT_TRUE(f.ok());
    EXPECT_FALSE(f->enabled) << name;
    EXPECT_EQ(f->swaps_applied, 0u) << name;
    EXPECT_EQ(f->last_swap_time, 0.0) << name;
    EXPECT_EQ(f->model_origin, 0.0) << name;
  }
  ASSERT_TRUE(fleet.EnableFreshness(MakePolicy(horizon)).ok());
  for (const char* name : {"now", "later"}) {
    auto f = fleet.Freshness(name);
    ASSERT_TRUE(f.ok());
    EXPECT_TRUE(f->enabled) << name;
    EXPECT_EQ(f->swaps_applied, 0u) << name;
  }
}

TEST(FleetFreshness, BadDetectorKnobIsRejectedForRestoredAndLiveTenants) {
  // A detector knob a fresh attach rejects must not slip in through the
  // rebind of a tenant that already has loop state; the failed call leaves
  // the old policy in place, byte for byte.
  const double horizon = 2.0 * kPeriodS;
  const auto train = MakeSineTrace(82, 4.0 * kPeriodS, 1.0);
  ScalerFleet fleet(0);
  ASSERT_TRUE(fleet.EnableFreshness(MakePolicy(horizon)).ok());
  ASSERT_TRUE(
      fleet.Register("svc", BuildScaler(train, horizon, "backup_pool")).ok());
  std::stringstream before;
  ASSERT_TRUE(fleet.SaveFleet(before).ok());

  for (int knob = 0; knob < 3; ++knob) {
    api::FreshnessPolicy bad = MakePolicy(horizon);
    if (knob == 0) bad.detector.threshold = 0.0;
    if (knob == 1) bad.detector.min_rate = 0.0;
    if (knob == 2) bad.detector.profile_cusum_threshold = 0.0;
    SCOPED_TRACE("knob " + std::to_string(knob));
    const Status st = fleet.EnableFreshness(bad);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    std::stringstream after;
    ASSERT_TRUE(fleet.SaveFleet(after).ok());
    EXPECT_EQ(before.str(), after.str()) << "the old policy stays";

    // The same knob on a fleet restored with loop state.
    std::stringstream copy(before.str());
    auto restored = ScalerFleet::LoadFleet(copy);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->EnableFreshness(bad).code(),
              StatusCode::kInvalidArgument);
  }
}

/// A hand-built SaveFleet container: an empty FLET v3 fleet with freshness
/// on, whose FPOL section is written in layout `fpol_version` from `policy`.
std::string HandBuiltFleet(std::uint32_t fpol_version,
                           const api::FreshnessPolicy& policy) {
  persist::Writer writer;
  writer.BeginSection(persist::kTagFleet);
  writer.WriteU32(3);  // FLET layout version.
  writer.WriteBool(true);
  writer.BeginSection(persist::kTagFreshnessPolicy);
  writer.WriteU32(fpol_version);
  writer.WriteDouble(policy.pipeline.dt);
  writer.WriteDouble(policy.pipeline.beta1);
  writer.WriteDouble(policy.pipeline.beta2);
  writer.WriteDouble(policy.pipeline.forecast_horizon);
  writer.WriteDouble(policy.pipeline.admm.rho);
  writer.WriteU64(policy.pipeline.admm.max_iterations);
  writer.WriteDouble(policy.pipeline.admm.abs_tolerance);
  writer.WriteDouble(policy.pipeline.admm.rel_tolerance);
  writer.WriteDouble(policy.pipeline.admm.r_clamp);
  writer.WriteU64(policy.pipeline.periodicity.aggregate_factor);
  writer.WriteU64(policy.detector.warmup_bins);
  writer.WriteDouble(policy.detector.min_rate);
  writer.WriteDouble(policy.detector.delta);
  writer.WriteDouble(policy.detector.threshold);
  writer.WriteDouble(policy.detector.min_profile_correlation);
  writer.WriteDouble(policy.detector.profile_cusum_threshold);
  writer.WriteBool(policy.detector.check_periodicity);
  writer.WriteDouble(policy.min_retrain_interval);
  writer.WriteU64(policy.retrain_workers);
  writer.EndSection();
  writer.WriteU64(0);  // No tenants.
  writer.EndSection();
  return std::string(writer.Finish());
}

TEST(FleetFreshness, LoadFleetRejectsAnOversizedRetrainPool) {
  // A hand-built FLET record whose policy asks for 2^40 retrain threads.
  api::FreshnessPolicy policy = MakePolicy(kPeriodS);
  policy.retrain_workers = std::size_t{1} << 40;
  std::stringstream bytes(HandBuiltFleet(2, policy));

  auto loaded = ScalerFleet::LoadFleet(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("retrain_workers"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(FleetFreshness, V1PolicyLoadsWithDefaultTolerancesAndV2KeepsItsOwn) {
  // Every field away from its default, so a field read from the wrong
  // slot shows.
  api::FreshnessPolicy written = MakePolicy(kPeriodS);
  written.pipeline.admm.rho = 2.5;
  written.pipeline.admm.max_iterations = 77;
  written.pipeline.admm.abs_tolerance = 0.25;
  written.pipeline.admm.rel_tolerance = 0.5;
  written.pipeline.admm.r_clamp = 20.0;
  written.detector.warmup_bins += 3;
  written.detector.min_rate *= 2.0;
  written.detector.delta *= 0.5;
  written.detector.threshold *= 1.5;
  written.detector.min_profile_correlation = 0.6;
  written.detector.profile_cusum_threshold *= 2.0;
  written.detector.check_periodicity = !written.detector.check_periodicity;
  written.min_retrain_interval = 45.0;
  written.retrain_workers = 3;

  // A v1 section held raw residual-norm bounds in the tolerance slots; they
  // load as the current defaults. A v2 section keeps its tolerances.
  const core::AdmmOptions defaults;
  api::FreshnessPolicy v1_expected = written;
  v1_expected.pipeline.admm.abs_tolerance = defaults.abs_tolerance;
  v1_expected.pipeline.admm.rel_tolerance = defaults.rel_tolerance;
  for (const std::uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("FPOL version " + std::to_string(version));
    std::stringstream bytes(HandBuiltFleet(version, written));
    auto loaded = ScalerFleet::LoadFleet(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(loaded->freshness_enabled());
    // SaveFleet writes the loaded policy back in the current layout, so
    // every field it holds shows in the bytes.
    std::stringstream saved;
    ASSERT_TRUE(loaded->SaveFleet(saved).ok());
    EXPECT_EQ(saved.str(),
              HandBuiltFleet(2, version == 1 ? v1_expected : written));
  }
}

// ---------------------------------------------------------------------------
// Freshness state through SaveFleet/LoadFleet.
// ---------------------------------------------------------------------------

TEST(FleetFreshness, SurvivesSaveLoadWithByteIdenticalContinuation) {
  const double train_horizon = 4.0 * kPeriodS;
  const double serve_horizon = 2.0 * kPeriodS;
  const double shift_at = serve_horizon / 3.0;
  const double cut = 800.0;  // After the drift → retrain → swap completed.
  const std::vector<std::string> tenants = {"shifty", "steady"};
  const auto train_a = MakeSineTrace(71, train_horizon, 1.0);
  const auto train_b = MakeSineTrace(72, train_horizon, 1.0);
  const std::vector<workload::Trace> serve = {
      MakeSineTrace(73, serve_horizon, 1.0, kPeriodS, shift_at, 4.0),
      MakeSineTrace(74, serve_horizon, 1.0),
  };
  const auto events = MergeEvents(serve);

  ScalerFleet fleet(0);
  ASSERT_TRUE(fleet.EnableFreshness(MakePolicy(serve_horizon)).ok());
  ASSERT_TRUE(
      fleet.Register("shifty", BuildScaler(train_a, serve_horizon,
                                           "robust_hp:target=0.9"))
          .ok());
  ASSERT_TRUE(
      fleet.Register("steady", BuildScaler(train_b, serve_horizon,
                                           "robust_hp:target=0.9"))
          .ok());

  // First leg: drive through the drift, retrain, and swap.
  DriveFleet(&fleet, tenants, events, cut);
  auto shifty = fleet.Freshness("shifty");
  ASSERT_TRUE(shifty.ok());
  ASSERT_GE(shifty->swaps_applied, 1u);
  ASSERT_FALSE(shifty->retrain_inflight)
      << "pick the snapshot point between retrains";

  std::stringstream buffer;
  ASSERT_TRUE(fleet.SaveFleet(buffer).ok());
  auto restored = ScalerFleet::LoadFleet(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->freshness_enabled());

  // Second leg on both fleets: identical events, identical plans.
  std::vector<std::pair<double, std::size_t>> tail_events;
  for (const auto& event : events) {
    if (event.first >= cut) tail_events.push_back(event);
  }
  const auto original_run =
      DriveFleet(&fleet, tenants, tail_events, serve_horizon, /*from=*/cut);
  const auto restored_run = DriveFleet(&*restored, tenants, tail_events,
                                       serve_horizon, /*from=*/cut);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    ExpectActionsIdentical(original_run.actions[i], restored_run.actions[i],
                           "restored continuation, tenant " + tenants[i]);
  }

  // Counters picked up where they left off...
  auto a = fleet.Freshness("shifty");
  auto b = restored->Freshness("shifty");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->drift_events, b->drift_events);
  EXPECT_EQ(a->retrains_completed, b->retrains_completed);
  EXPECT_EQ(a->swaps_applied, b->swaps_applied);
  EXPECT_EQ(a->window_end, b->window_end);

  // ...and the full durable state converged to the same bytes: detector
  // scores, session window, and serving state all continued identically.
  std::stringstream final_a, final_b;
  ASSERT_TRUE(fleet.SaveFleet(final_a).ok());
  ASSERT_TRUE(restored->SaveFleet(final_b).ok());
  EXPECT_EQ(final_a.str(), final_b.str());
}

}  // namespace
}  // namespace rs

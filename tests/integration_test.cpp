// End-to-end integration tests through the public rs::api facade: the full
// pipeline (periodicity detection → ADMM fit → forecast → policy → replay)
// on synthetic periodic workloads, including the headline comparison that
// RobustScaler beats the reactive baseline's QoS at comparable cost.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rs/api/api.hpp"
#include "rs/stats/rng.hpp"

namespace rs::api {
namespace {

/// Periodic synthetic workload: 6 days of a diurnal-ish pattern with period
/// 2 hours (keeps the fit small and fast), split 5 train / 1 test.
struct Scenario {
  workload::Trace train;
  workload::Trace test;
  workload::PiecewiseConstantIntensity truth;  // Over the test day.
};

Scenario MakePeriodicScenario(std::uint64_t seed) {
  const double period_s = 7200.0;
  const double horizon = 6.0 * 24.0 * 3600.0 / 12.0;  // 12 periods total
  const double dt = 60.0;
  const auto bins = static_cast<std::size_t>(horizon / dt);
  std::vector<double> rates(bins);
  for (std::size_t t = 0; t < bins; ++t) {
    const double phase =
        std::fmod((static_cast<double>(t) + 0.5) * dt, period_s) / period_s;
    rates[t] = 0.4 + 0.35 * std::sin(2.0 * M_PI * phase);
  }
  auto intensity = *workload::PiecewiseConstantIntensity::Make(rates, dt);
  stats::Rng rng(seed);
  auto trace = *workload::MakeTraceFromIntensity(
      &rng, intensity, stats::DurationDistribution::Exponential(20.0));
  const double split = horizon - 2.0 * period_s;  // Last 2 cycles = test.
  auto [train, test] = trace.SplitAt(split);

  std::vector<double> test_rates(
      rates.end() - static_cast<std::ptrdiff_t>(2.0 * period_s / dt),
      rates.end());
  Scenario s{std::move(train), std::move(test),
             *workload::PiecewiseConstantIntensity::Make(test_rates, dt)};
  return s;
}

TEST(FacadeTest, DetectsPeriodAndFits) {
  auto scenario = MakePeriodicScenario(1);
  auto scaler = ScalerBuilder()
                    .WithTrace(scenario.train)
                    .WithBinWidth(60.0)
                    .WithForecastHorizon(scenario.test.horizon())
                    .Build();
  ASSERT_TRUE(scaler.ok()) << scaler.status().ToString();
  const auto& trained = scaler->trained();
  // Period is 7200 s = 120 bins at dt=60.
  ASSERT_GT(trained.period.period, 0u);
  EXPECT_NEAR(static_cast<double>(trained.period.period), 120.0, 10.0);
  EXPECT_EQ(trained.model.bins(), trained.counts.size());
  EXPECT_GE(scaler->forecast().horizon(), scenario.test.horizon() - 1e-6);
}

TEST(FacadeTest, ForecastTracksGroundTruth) {
  auto scenario = MakePeriodicScenario(2);
  auto scaler = ScalerBuilder()
                    .WithTrace(scenario.train)
                    .WithBinWidth(60.0)
                    .WithForecastHorizon(scenario.test.horizon())
                    .Build();
  ASSERT_TRUE(scaler.ok()) << scaler.status().ToString();
  // Compare forecast intensity against the ground-truth test intensity.
  double err = 0.0, scale = 0.0;
  const std::size_t bins = scenario.truth.bins();
  for (std::size_t t = 0; t < bins; ++t) {
    const double time = (static_cast<double>(t) + 0.5) * 60.0;
    err += std::abs(scaler->forecast().Rate(time) - scenario.truth.Rate(time));
    scale += scenario.truth.Rate(time);
  }
  EXPECT_LT(err / scale, 0.35);  // Mean relative error under 35%.
}

TEST(FacadeTest, EndToEndBeatsReactiveQoS) {
  auto scenario = MakePeriodicScenario(3);
  auto scaler = ScalerBuilder()
                    .WithTrace(scenario.train)
                    .WithBinWidth(60.0)
                    .WithForecastHorizon(scenario.test.horizon())
                    .WithTarget(HitRate{0.9})
                    .WithMcSamples(300)
                    .WithPlanningInterval(2.0)
                    .Build();
  ASSERT_TRUE(scaler.ok()) << scaler.status().ToString();

  auto rs_metrics = scaler->Evaluate(scenario.test);
  ASSERT_TRUE(rs_metrics.ok()) << rs_metrics.status().ToString();

  auto reactive = MakeStrategy({.name = "backup_pool", .params = {}});
  ASSERT_TRUE(reactive.ok()) << reactive.status().ToString();
  auto reactive_metrics = Evaluate(scenario.test, reactive->get());
  ASSERT_TRUE(reactive_metrics.ok()) << reactive_metrics.status().ToString();

  // QoS: the proactive policy must achieve a hit rate near the 0.9 target
  // while the reactive baseline hits nothing.
  EXPECT_DOUBLE_EQ(reactive_metrics->hit_rate, 0.0);
  EXPECT_GT(rs_metrics->hit_rate, 0.75);
  EXPECT_LT(rs_metrics->rt_avg, reactive_metrics->rt_avg);
}

TEST(FacadeTest, RejectsInvalidConfigurations) {
  // No trace at all.
  EXPECT_FALSE(ScalerBuilder().Build().ok());
  // Empty training trace.
  workload::Trace empty({}, 0.0);
  EXPECT_FALSE(ScalerBuilder().WithTrace(empty).Build().ok());
  // Bad bin width.
  workload::Trace some({{1.0, 1.0}}, 100.0);
  EXPECT_FALSE(ScalerBuilder().WithTrace(some).WithBinWidth(0.0).Build().ok());
}

TEST(FacadeTest, AperiodicTrainingStillWorks) {
  // Constant-rate traffic: no period detected, level forecast used.
  stats::Rng rng(4);
  auto intensity = *workload::PiecewiseConstantIntensity::Make(
      std::vector<double>(200, 0.3), 60.0);
  auto trace = *workload::MakeTraceFromIntensity(
      &rng, intensity, stats::DurationDistribution::Exponential(10.0));
  auto scaler = ScalerBuilder()
                    .WithTrace(trace)
                    .WithBinWidth(60.0)
                    .WithForecastHorizon(3600.0)
                    .Build();
  ASSERT_TRUE(scaler.ok()) << scaler.status().ToString();
  EXPECT_EQ(scaler->trained().period.period, 0u);
  // Level forecast near the true 0.3 QPS.
  EXPECT_NEAR(scaler->forecast().Rate(100.0), 0.3, 0.12);
}

TEST(IntegrationTest, CrsLikePipelineDetectsWeeklyOrDailyStructure) {
  workload::SyntheticTraceOptions topts;
  topts.noise_sigma = 0.2;
  auto synth = workload::MakeCrsLikeTrace(topts);
  ASSERT_TRUE(synth.ok());
  auto [train, test] = synth->trace.SplitAt(3.0 * 7.0 * 86400.0);

  const double dt = 600.0;  // 10-minute bins (weekly period = 1008 bins).
  auto scaler = ScalerBuilder()
                    .WithTrace(train)
                    .WithBinWidth(dt)
                    .WithAggregateFactor(6)  // Detect on hourly bins.
                    .WithForecastHorizon(test.horizon())
                    .Build();
  ASSERT_TRUE(scaler.ok()) << scaler.status().ToString();
  // Daily (144 bins) or weekly (1008 bins) structure should be found.
  EXPECT_GT(scaler->trained().period.period, 0u);
  const double period_days =
      static_cast<double>(scaler->trained().period.period) * dt / 86400.0;
  EXPECT_TRUE(std::abs(period_days - 1.0) < 0.3 ||
              std::abs(period_days - 7.0) < 1.0)
      << "period detected: " << period_days << " days";
}

// The three paper scenarios (the bench harnesses' train splits, bin widths
// and aggregation factors) must each stop on the scaled ADMM rule at
// default options, well inside the iteration cap.
struct PaperScenario {
  const char* name;
  Result<workload::SyntheticTrace> (*make)();
  double train_s;
  double dt;
  std::size_t aggregate_factor;
};

TEST(IntegrationTest, PaperScenarioFitsConvergeAtDefaults) {
  const PaperScenario scenarios[] = {
      {"CRS", [] { return workload::MakeCrsLikeTrace(); }, 3.0 * 7.0 * 86400.0,
       600.0, 6},
      {"Google", [] { return workload::MakeGoogleLikeTrace(); },
       18.0 * 3600.0, 60.0, 5},
      {"Alibaba", [] { return workload::MakeAlibabaLikeTrace(); },
       4.0 * 86400.0, 300.0, 1},
  };
  for (const PaperScenario& scenario : scenarios) {
    auto synth = scenario.make();
    ASSERT_TRUE(synth.ok()) << scenario.name;
    auto train = synth->trace.SplitAt(scenario.train_s).first;
    core::PipelineOptions options;
    options.dt = scenario.dt;
    options.periodicity.aggregate_factor = scenario.aggregate_factor;
    options.forecast_horizon = 3600.0;
    auto trained = TrainPipeline(train, options);
    ASSERT_TRUE(trained.ok()) << scenario.name << ": "
                              << trained.status().ToString();
    const core::AdmmInfo& info = trained->admm_info;
    EXPECT_TRUE(info.converged) << scenario.name;
    EXPECT_LT(info.iterations, options.admm.max_iterations) << scenario.name;
    EXPECT_LE(info.primal_residual, info.primal_epsilon) << scenario.name;
    EXPECT_LE(info.dual_residual, info.dual_epsilon) << scenario.name;
  }
}

}  // namespace
}  // namespace rs::api

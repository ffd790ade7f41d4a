// Tests for the sequential scaling schemes: Proposition-1-style hitting
// probability validation of Algorithm 4 on known-intensity Poisson traffic,
// target attainment of the three RobustScaler variants, and planning-
// frequency behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rs/core/sequential_scaler.hpp"
#include "rs/simulator/engine.hpp"
#include "rs/simulator/metrics.hpp"
#include "rs/stats/rng.hpp"
#include "rs/workload/nhpp_sampler.hpp"
#include "rs/workload/synthetic.hpp"

namespace rs::core {
namespace {

/// Homogeneous Poisson trace with Exp processing times.
workload::Trace PoissonTrace(double rate, double horizon, double proc_mean,
                             std::uint64_t seed) {
  stats::Rng rng(seed);
  auto intensity = workload::PiecewiseConstantIntensity::Make(
      std::vector<double>(100, rate), horizon / 100.0);
  auto trace = workload::MakeTraceFromIntensity(
      &rng, *intensity, stats::DurationDistribution::Exponential(proc_mean));
  return *trace;
}

workload::PiecewiseConstantIntensity ConstantIntensity(double rate,
                                                       double horizon) {
  return *workload::PiecewiseConstantIntensity::Make(
      std::vector<double>(100, rate), horizon / 100.0);
}

sim::EngineOptions DetPending(double tau, std::uint64_t seed = 9) {
  sim::EngineOptions opts;
  opts.pending = stats::DurationDistribution::Deterministic(tau);
  opts.seed = seed;
  return opts;
}

class HpTargetTest : public ::testing::TestWithParam<double> {};

// Proposition 1 in practice: with the true intensity as input, the achieved
// hit rate tracks the 1-α target on Poisson arrivals.
TEST_P(HpTargetTest, PolicyAttainsTargetOnKnownIntensity) {
  const double target_hp = GetParam();
  const double rate = 0.5, horizon = 30000.0, tau = 13.0;
  auto trace = PoissonTrace(rate, horizon, 20.0, 42);
  ASSERT_GT(trace.size(), 5000u);

  SequentialScalerOptions opts;
  opts.variant = ScalerVariant::kHittingProbability;
  opts.alpha = 1.0 - target_hp;
  opts.mc_samples = 400;
  opts.planning_interval = 2.0;
  RobustScalerPolicy policy(ConstantIntensity(rate, horizon),
                            stats::DurationDistribution::Deterministic(tau),
                            opts);
  auto result = sim::Simulate(trace, &policy, DetPending(tau));
  ASSERT_TRUE(result.ok());
  auto m = sim::ComputeMetrics(*result);
  ASSERT_TRUE(m.ok());
  // MC decision noise and per-Δ replanning shift the achieved level a
  // little, most visibly at loose targets where the quantile estimate has
  // maximal variance (the paper's Section VI-C calibration exists for
  // exactly this residual). Tight targets get a ±0.05 band, the loose 0.5
  // target ±0.08.
  const double band = target_hp <= 0.5 ? 0.08 : 0.05;
  EXPECT_NEAR(m->hit_rate, target_hp, band) << "target " << target_hp;
}

INSTANTIATE_TEST_SUITE_P(Targets, HpTargetTest,
                         ::testing::Values(0.5, 0.8, 0.9));

TEST(HpCountScalerTest, LiteralAlgorithm4AttainsTarget) {
  const double rate = 0.5, horizon = 30000.0, tau = 13.0;
  const double target_hp = 0.8;
  auto trace = PoissonTrace(rate, horizon, 20.0, 7);

  HpCountScalerOptions opts;
  opts.alpha = 1.0 - target_hp;
  opts.m = 1;
  opts.mc_samples = 1500;
  HpCountScaler scaler(ConstantIntensity(rate, horizon),
                       stats::DurationDistribution::Deterministic(tau), opts);
  auto result = sim::Simulate(trace, &scaler, DetPending(tau));
  ASSERT_TRUE(result.ok());
  // κ should be near λ̄τ-ish for this config (Eq. 8 with λ̄=0.5, τ=13:
  // threshold 6.5; Gamma quantile at 0.2 crosses around i≈8-9).
  EXPECT_GT(scaler.kappa(), 3u);
  EXPECT_LT(scaler.kappa(), 20u);
  auto m = sim::ComputeMetrics(*result);
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->hit_rate, target_hp, 0.06);
}

TEST(HpCountScalerTest, PlanningEveryFiveArrivalsStillWorks) {
  const double rate = 0.5, horizon = 20000.0, tau = 13.0;
  auto trace = PoissonTrace(rate, horizon, 20.0, 8);
  HpCountScalerOptions opts;
  opts.alpha = 0.2;
  opts.m = 5;
  opts.mc_samples = 1200;
  HpCountScaler scaler(ConstantIntensity(rate, horizon),
                       stats::DurationDistribution::Deterministic(tau), opts);
  auto result = sim::Simulate(trace, &scaler, DetPending(tau));
  ASSERT_TRUE(result.ok());
  auto m = sim::ComputeMetrics(*result);
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->hit_rate, 0.8, 0.07);
}

TEST(RtVariantTest, AttainsWaitBudget) {
  const double rate = 0.5, horizon = 30000.0, tau = 13.0;
  auto trace = PoissonTrace(rate, horizon, 20.0, 9);
  SequentialScalerOptions opts;
  opts.variant = ScalerVariant::kResponseTime;
  opts.rt_excess = 2.0;  // Allowed mean wait: 2 s beyond processing.
  opts.mc_samples = 400;
  opts.planning_interval = 2.0;
  RobustScalerPolicy policy(ConstantIntensity(rate, horizon),
                            stats::DurationDistribution::Deterministic(tau),
                            opts);
  auto result = sim::Simulate(trace, &policy, DetPending(tau));
  ASSERT_TRUE(result.ok());
  auto m = sim::ComputeMetrics(*result);
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->wait_avg, 2.0, 0.8);
}

TEST(RtVariantTest, TighterBudgetRaisesCost) {
  const double rate = 0.5, horizon = 15000.0, tau = 13.0;
  auto trace = PoissonTrace(rate, horizon, 20.0, 10);
  double prev_cost = 1e300;
  for (double excess : {0.5, 3.0, 8.0}) {
    SequentialScalerOptions opts;
    opts.variant = ScalerVariant::kResponseTime;
    opts.rt_excess = excess;
    opts.mc_samples = 300;
    opts.planning_interval = 2.0;
    RobustScalerPolicy policy(ConstantIntensity(rate, horizon),
                              stats::DurationDistribution::Deterministic(tau),
                              opts);
    auto result = sim::Simulate(trace, &policy, DetPending(tau));
    ASSERT_TRUE(result.ok());
    auto m = sim::ComputeMetrics(*result);
    ASSERT_TRUE(m.ok());
    EXPECT_LT(m->total_cost, prev_cost) << "excess " << excess;
    prev_cost = m->total_cost;
  }
}

TEST(CostVariantTest, RespectsIdleBudget) {
  const double rate = 0.5, horizon = 30000.0, tau = 13.0;
  auto trace = PoissonTrace(rate, horizon, 20.0, 11);
  SequentialScalerOptions opts;
  opts.variant = ScalerVariant::kCost;
  opts.idle_budget = 2.0;
  opts.mc_samples = 400;
  opts.planning_interval = 2.0;
  RobustScalerPolicy policy(ConstantIntensity(rate, horizon),
                            stats::DurationDistribution::Deterministic(tau),
                            opts);
  auto result = sim::Simulate(trace, &policy, DetPending(tau));
  ASSERT_TRUE(result.ok());
  // Mean idle time per used instance ≈ the budget. For a served instance
  // lifecycle = idle + τ + s, so idle+s = lifecycle − τ and the mean idle is
  // mean(lifecycle − τ) − E[s] with E[s] = 20 (Exp processing).
  double idle_plus_s = 0.0;
  std::size_t used = 0;
  for (const auto& inst : result->instances) {
    if (!inst.served_query) continue;
    ++used;
    idle_plus_s += std::max(0.0, inst.lifecycle_cost - tau);
  }
  ASSERT_GT(used, 1000u);
  const double mean_idle = idle_plus_s / static_cast<double>(used) - 20.0;
  EXPECT_NEAR(mean_idle, 2.0, 1.2);
}

TEST(CostVariantTest, LargerBudgetImprovesHitRate) {
  const double rate = 0.5, horizon = 15000.0, tau = 13.0;
  auto trace = PoissonTrace(rate, horizon, 20.0, 12);
  double prev_hit = -1.0;
  for (double budget : {0.2, 2.0, 15.0}) {
    SequentialScalerOptions opts;
    opts.variant = ScalerVariant::kCost;
    opts.idle_budget = budget;
    opts.mc_samples = 300;
    opts.planning_interval = 2.0;
    RobustScalerPolicy policy(ConstantIntensity(rate, horizon),
                              stats::DurationDistribution::Deterministic(tau),
                              opts);
    auto result = sim::Simulate(trace, &policy, DetPending(tau));
    ASSERT_TRUE(result.ok());
    auto m = sim::ComputeMetrics(*result);
    ASSERT_TRUE(m.ok());
    EXPECT_GE(m->hit_rate, prev_hit - 0.03) << "budget " << budget;
    prev_hit = m->hit_rate;
  }
}

TEST(ScalerTest, NamesReflectVariant) {
  auto intensity = ConstantIntensity(1.0, 100.0);
  auto pending = stats::DurationDistribution::Deterministic(1.0);
  SequentialScalerOptions opts;
  opts.variant = ScalerVariant::kHittingProbability;
  EXPECT_STREQ(RobustScalerPolicy(intensity, pending, opts).name(),
               "RobustScaler-HP");
  opts.variant = ScalerVariant::kResponseTime;
  EXPECT_STREQ(RobustScalerPolicy(intensity, pending, opts).name(),
               "RobustScaler-RT");
  opts.variant = ScalerVariant::kCost;
  EXPECT_STREQ(RobustScalerPolicy(intensity, pending, opts).name(),
               "RobustScaler-cost");
}

TEST(ScalerTest, CoarserPlanningIsCostlierAtSameRtTarget) {
  // Fig. 10(d) mechanism: larger Δ forces earlier/coarser creations.
  const double rate = 0.5, horizon = 15000.0, tau = 13.0;
  auto trace = PoissonTrace(rate, horizon, 20.0, 13);
  std::vector<double> costs;
  for (double delta : {1.0, 30.0}) {
    SequentialScalerOptions opts;
    opts.variant = ScalerVariant::kResponseTime;
    opts.rt_excess = 2.0;
    opts.mc_samples = 300;
    opts.planning_interval = delta;
    RobustScalerPolicy policy(ConstantIntensity(rate, horizon),
                              stats::DurationDistribution::Deterministic(tau),
                              opts);
    auto result = sim::Simulate(trace, &policy, DetPending(tau));
    ASSERT_TRUE(result.ok());
    auto m = sim::ComputeMetrics(*result);
    ASSERT_TRUE(m.ok());
    costs.push_back(m->total_cost);
  }
  EXPECT_GT(costs[1], costs[0] * 0.95);
}

}  // namespace
}  // namespace rs::core

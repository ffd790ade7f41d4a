// Tests for traces, intensity functions, NHPP samplers, synthetic trace
// generators, and the perturbation protocol.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include <unistd.h>

#include "rs/stats/empirical.hpp"
#include "rs/stats/rng.hpp"
#include "rs/timeseries/aggregate.hpp"
#include "rs/workload/intensity.hpp"
#include "rs/workload/nhpp_sampler.hpp"
#include "rs/workload/perturbation.hpp"
#include "rs/workload/synthetic.hpp"
#include "rs/workload/trace.hpp"

namespace rs::workload {
namespace {

TEST(TraceTest, SortsOnConstruction) {
  Trace t({{5.0, 1.0}, {1.0, 2.0}, {3.0, 3.0}}, 10.0);
  EXPECT_DOUBLE_EQ(t[0].arrival_time, 1.0);
  EXPECT_DOUBLE_EQ(t[2].arrival_time, 5.0);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t.AverageQps(), 0.3);
}

TEST(TraceTest, SliceRebasesTimes) {
  Trace t({{1.0, 1.0}, {3.0, 1.0}, {7.0, 1.0}}, 10.0);
  Trace s = t.Slice(2.0, 8.0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].arrival_time, 1.0);
  EXPECT_DOUBLE_EQ(s[1].arrival_time, 5.0);
  EXPECT_DOUBLE_EQ(s.horizon(), 6.0);
}

TEST(TraceTest, SplitAtPartitionsAllQueries) {
  Trace t({{1.0, 1.0}, {3.0, 1.0}, {7.0, 1.0}}, 10.0);
  auto [train, test] = t.SplitAt(5.0);
  EXPECT_EQ(train.size(), 2u);
  EXPECT_EQ(test.size(), 1u);
  EXPECT_DOUBLE_EQ(test[0].arrival_time, 2.0);
}

TEST(TraceTest, CsvRoundTrip) {
  Trace t({{1.25, 10.5}, {2.5, 20.25}}, 100.0);
  const std::string path = ::testing::TempDir() + "/trace_roundtrip_" +
                           std::to_string(::getpid()) + ".csv";
  ASSERT_TRUE(t.SaveCsv(path).ok());
  auto loaded = Trace::LoadCsv(path, 100.0);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_DOUBLE_EQ((*loaded)[0].arrival_time, 1.25);
  EXPECT_DOUBLE_EQ((*loaded)[1].processing_time, 20.25);
  std::remove(path.c_str());
}

TEST(TraceTest, LoadMissingFileFails) {
  EXPECT_FALSE(Trace::LoadCsv("/nonexistent/file.csv").ok());
}

TEST(IntensityTest, RateAndCumulative) {
  auto intensity = PiecewiseConstantIntensity::Make({2.0, 0.0, 4.0}, 10.0);
  ASSERT_TRUE(intensity.ok());
  EXPECT_DOUBLE_EQ(intensity->Rate(5.0), 2.0);
  EXPECT_DOUBLE_EQ(intensity->Rate(15.0), 0.0);
  EXPECT_DOUBLE_EQ(intensity->Rate(25.0), 4.0);
  EXPECT_DOUBLE_EQ(intensity->Rate(99.0), 4.0);  // Constant tail.
  EXPECT_DOUBLE_EQ(intensity->Cumulative(0.0), 0.0);
  EXPECT_DOUBLE_EQ(intensity->Cumulative(10.0), 20.0);
  EXPECT_DOUBLE_EQ(intensity->Cumulative(20.0), 20.0);
  EXPECT_DOUBLE_EQ(intensity->Cumulative(30.0), 60.0);
  EXPECT_DOUBLE_EQ(intensity->Cumulative(40.0), 100.0);  // Tail extension.
  EXPECT_DOUBLE_EQ(intensity->MaxRate(), 4.0);
  EXPECT_DOUBLE_EQ(intensity->MeanRate(), 2.0);
}

TEST(IntensityTest, InverseCumulativeInvertsCumulative) {
  auto intensity =
      PiecewiseConstantIntensity::Make({1.0, 3.0, 0.5, 2.0}, 5.0);
  ASSERT_TRUE(intensity.ok());
  for (double target : {0.0, 1.0, 4.9, 5.0, 7.5, 17.0, 20.0, 31.0, 60.0}) {
    auto t = intensity->InverseCumulative(target);
    ASSERT_TRUE(t.ok()) << target;
    EXPECT_NEAR(intensity->Cumulative(*t), target, 1e-9) << target;
  }
}

TEST(IntensityTest, InverseSkipsZeroRateBins) {
  auto intensity = PiecewiseConstantIntensity::Make({1.0, 0.0, 1.0}, 1.0);
  ASSERT_TRUE(intensity.ok());
  // Target just past the first bin must land at the start of bin 2.
  auto t = intensity->InverseCumulative(1.0 + 1e-12);
  ASSERT_TRUE(t.ok());
  EXPECT_GE(*t, 2.0 - 1e-9);
}

TEST(IntensityTest, RejectsBadInputs) {
  EXPECT_FALSE(PiecewiseConstantIntensity::Make({}, 1.0).ok());
  EXPECT_FALSE(PiecewiseConstantIntensity::Make({1.0}, 0.0).ok());
  EXPECT_FALSE(PiecewiseConstantIntensity::Make({-1.0}, 1.0).ok());
  auto intensity = PiecewiseConstantIntensity::Make({1.0}, 1.0);
  EXPECT_FALSE(intensity->InverseCumulative(-1.0).ok());
}

TEST(IntensityTest, DiscretizeUsesMidpoints) {
  auto fn = [](double t) { return t; };
  auto intensity = Discretize(fn, 2.0, 6.0);
  ASSERT_TRUE(intensity.ok());
  EXPECT_EQ(intensity->bins(), 3u);
  EXPECT_DOUBLE_EQ(intensity->rates()[0], 1.0);
  EXPECT_DOUBLE_EQ(intensity->rates()[2], 5.0);
}

TEST(IntensityTest, ScalabilityIntensityShape) {
  auto fn = MakeScalabilityIntensity(10000.0);
  EXPECT_NEAR(fn(1800.0), 10000.0 + 0.001, 1.0);  // Peak mid-period.
  EXPECT_NEAR(fn(0.0), 0.001, 1e-6);              // Trough at the edges.
  EXPECT_NEAR(fn(1800.0 + 3600.0), fn(1800.0), 1e-6);  // Periodic.
}

TEST(IntensityTest, RegularizationIntensityShape) {
  auto fn = MakeRegularizationIntensity();
  EXPECT_NEAR(fn(43200.0), 1.1, 1e-9);  // 4^10 (1/2)^20 = 1, + 0.1.
  EXPECT_NEAR(fn(0.0), 0.1, 1e-9);
  EXPECT_NEAR(fn(43200.0 + 86400.0), fn(43200.0), 1e-9);
}

TEST(NhppSamplerTest, HomogeneousCountMatchesRate) {
  stats::Rng rng(1);
  auto intensity = PiecewiseConstantIntensity::Make(
      std::vector<double>(100, 2.0), 10.0);
  ASSERT_TRUE(intensity.ok());
  auto arrivals = SampleNhppTimeRescaling(&rng, *intensity);
  ASSERT_TRUE(arrivals.ok());
  // Expect ~2000 arrivals over 1000 s; 5 sigma ≈ 224.
  EXPECT_NEAR(static_cast<double>(arrivals->size()), 2000.0, 250.0);
  for (std::size_t i = 1; i < arrivals->size(); ++i) {
    EXPECT_GE((*arrivals)[i], (*arrivals)[i - 1]);
  }
}

TEST(NhppSamplerTest, ThinningMatchesTimeRescalingInDistribution) {
  auto fn = [](double t) { return 1.0 + std::sin(t / 50.0); };
  stats::Rng rng1(2), rng2(3);
  auto thinned = SampleNhppThinning(&rng1, fn, 2.0, 2000.0);
  ASSERT_TRUE(thinned.ok());
  auto discretized = Discretize(fn, 1.0, 2000.0);
  ASSERT_TRUE(discretized.ok());
  auto rescaled = SampleNhppTimeRescaling(&rng2, *discretized);
  ASSERT_TRUE(rescaled.ok());
  // Expected count = ∫λ ≈ 2000 + 50(1-cos(40)) ≈ 2016; both within 5 sigma.
  const double expected = 2000.0 + 50.0 * (1.0 - std::cos(40.0));
  EXPECT_NEAR(static_cast<double>(thinned->size()), expected, 250.0);
  EXPECT_NEAR(static_cast<double>(rescaled->size()), expected, 250.0);
}

TEST(NhppSamplerTest, ThinningRejectsUnderestimatedBound) {
  stats::Rng rng(4);
  auto fn = [](double) { return 5.0; };
  EXPECT_FALSE(SampleNhppThinning(&rng, fn, 1.0, 100.0).ok());
}

TEST(NhppSamplerTest, ZeroIntensityYieldsNoArrivals) {
  stats::Rng rng(5);
  auto intensity = PiecewiseConstantIntensity::Make({0.0, 0.0}, 100.0);
  ASSERT_TRUE(intensity.ok());
  auto arrivals = SampleNhppTimeRescaling(&rng, *intensity);
  ASSERT_TRUE(arrivals.ok());
  EXPECT_TRUE(arrivals->empty());
}

TEST(SyntheticTest, CrsLikeTraceBasicShape) {
  auto synth = MakeCrsLikeTrace();
  ASSERT_TRUE(synth.ok());
  const auto& trace = synth->trace;
  EXPECT_DOUBLE_EQ(trace.horizon(), 4.0 * 7.0 * 86400.0);
  // Paper CRS: 21,059 queries over 4 weeks; ours should be same order.
  EXPECT_GT(trace.size(), 5000u);
  EXPECT_LT(trace.size(), 80000u);
  // Heavy-tailed processing times with mean near 179 s.
  std::vector<double> proc;
  for (const auto& q : trace.queries()) proc.push_back(q.processing_time);
  EXPECT_NEAR(stats::Mean(proc), 179.0, 40.0);
  EXPECT_DOUBLE_EQ(synth->pending.Mean(), 13.0);
}

TEST(SyntheticTest, CrsLikeHasWeeklyStructure) {
  auto synth = MakeCrsLikeTrace();
  ASSERT_TRUE(synth.ok());
  // Weekday rate should exceed weekend rate materially in the ground truth.
  const auto& rates = synth->intensity.rates();
  const std::size_t week_bins = rates.size() / 4;
  const std::size_t day_bins = week_bins / 7;
  double weekday = 0.0, weekend = 0.0;
  for (std::size_t i = 0; i < 5 * day_bins; ++i) weekday += rates[i];
  for (std::size_t i = 5 * day_bins; i < 7 * day_bins; ++i) weekend += rates[i];
  weekday /= static_cast<double>(5 * day_bins);
  weekend /= static_cast<double>(2 * day_bins);
  EXPECT_GT(weekday, 1.5 * weekend);
}

TEST(SyntheticTest, GoogleLikeTraceBasicShape) {
  auto synth = MakeGoogleLikeTrace();
  ASSERT_TRUE(synth.ok());
  EXPECT_DOUBLE_EQ(synth->trace.horizon(), 86400.0);
  // Paper: 20,254 queries over 24 h.
  EXPECT_GT(synth->trace.size(), 8000u);
  EXPECT_LT(synth->trace.size(), 50000u);
}

TEST(SyntheticTest, AlibabaLikeHasBurstOnDayFour) {
  auto synth = MakeAlibabaLikeTrace();
  ASSERT_TRUE(synth.ok());
  EXPECT_DOUBLE_EQ(synth->trace.horizon(), 5.0 * 86400.0);
  const auto burst = AlibabaBurstWindow();
  // QPS inside the burst window should far exceed the same window one day
  // earlier.
  const auto in_burst =
      synth->trace.Slice(burst.begin, burst.end).size();
  const auto day_before =
      synth->trace.Slice(burst.begin - 86400.0, burst.end - 86400.0).size();
  EXPECT_GT(in_burst, 2 * day_before);
}

TEST(SyntheticTest, ScaleControlsQueryCount) {
  SyntheticTraceOptions small;
  small.scale = 0.05;
  SyntheticTraceOptions large;
  large.scale = 0.2;
  auto a = MakeAlibabaLikeTrace(small);
  auto b = MakeAlibabaLikeTrace(large);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(b->trace.size(), 2 * a->trace.size());
}

TEST(SyntheticTest, DeterministicForFixedSeed) {
  auto a = MakeGoogleLikeTrace();
  auto b = MakeGoogleLikeTrace();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->trace.size(), b->trace.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(a->trace.size(), 100); ++i) {
    EXPECT_DOUBLE_EQ(a->trace[i].arrival_time, b->trace[i].arrival_time);
  }
}

TEST(PerturbationTest, DeletionWindowEmptied) {
  // Dense uniform trace: one query per second for an hour.
  std::vector<Query> qs;
  for (int i = 0; i < 7200; ++i) {
    qs.push_back({static_cast<double>(i), 10.0});
  }
  Trace trace(std::move(qs), 7200.0);
  PerturbationOptions opts;
  opts.add_factor = 0.0;
  auto perturbed = PerturbTrace(trace, opts);
  ASSERT_TRUE(perturbed.ok());
  // Queries in [0, 300) and [3600, 3900) must be gone.
  EXPECT_EQ(perturbed->Slice(0.0, 300.0).size(), 0u);
  EXPECT_EQ(perturbed->Slice(3600.0, 3900.0).size(), 0u);
  // Other windows retain their queries.
  EXPECT_EQ(perturbed->Slice(1000.0, 1300.0).size(), 300u);
}

TEST(PerturbationTest, AdditionScalesWithC) {
  std::vector<Query> qs;
  for (int i = 0; i < 7200; ++i) {
    qs.push_back({static_cast<double>(i), 10.0});
  }
  Trace trace(std::move(qs), 7200.0);
  PerturbationOptions opts;
  opts.add_factor = 4.0;
  auto perturbed = PerturbTrace(trace, opts);
  ASSERT_TRUE(perturbed.ok());
  // Addition window [360, 660): originally 300 queries, plus ~4x more.
  const auto count = perturbed->Slice(360.0, 660.0).size();
  EXPECT_NEAR(static_cast<double>(count), 300.0 * 5.0, 60.0);
}

TEST(PerturbationTest, RejectsNegativeAddFactor) {
  Trace trace({{1.0, 1.0}}, 10.0);
  PerturbationOptions opts;
  opts.add_factor = -1.0;
  EXPECT_FALSE(PerturbTrace(trace, opts).ok());
}

TEST(PerturbationTest, RemoveWindowDropsExactRange) {
  Trace trace({{1.0, 1.0}, {2.0, 1.0}, {3.0, 1.0}}, 10.0);
  Trace cut = RemoveWindow(trace, 1.5, 2.5);
  ASSERT_EQ(cut.size(), 2u);
  EXPECT_DOUBLE_EQ(cut[0].arrival_time, 1.0);
  EXPECT_DOUBLE_EQ(cut[1].arrival_time, 3.0);
  EXPECT_DOUBLE_EQ(cut.horizon(), 10.0);
}

TEST(PerturbationTest, ThinWindowKeepsFraction) {
  std::vector<Query> qs;
  for (int i = 0; i < 10000; ++i) qs.push_back({i * 0.1, 1.0});
  Trace trace(std::move(qs), 1000.0);
  auto thinned = ThinWindow(trace, 0.0, 500.0, 0.25);
  ASSERT_TRUE(thinned.ok());
  const auto kept_inside = thinned->Slice(0.0, 500.0).size();
  const auto kept_outside = thinned->Slice(500.0, 1000.0).size();
  EXPECT_NEAR(static_cast<double>(kept_inside), 1250.0, 150.0);
  EXPECT_EQ(kept_outside, 5000u);
  EXPECT_FALSE(ThinWindow(trace, 0.0, 1.0, 1.5).ok());
}

TEST(MakeTraceFromIntensityTest, ProcessingTimesFollowDistribution) {
  stats::Rng rng(77);
  auto intensity =
      PiecewiseConstantIntensity::Make(std::vector<double>(50, 1.0), 10.0);
  ASSERT_TRUE(intensity.ok());
  auto trace = MakeTraceFromIntensity(
      &rng, *intensity, stats::DurationDistribution::Deterministic(42.0));
  ASSERT_TRUE(trace.ok());
  ASSERT_GT(trace->size(), 0u);
  for (const auto& q : trace->queries()) {
    EXPECT_DOUBLE_EQ(q.processing_time, 42.0);
  }
}

}  // namespace
}  // namespace rs::workload

// Tests for the statistics substrate: RNG determinism, distribution
// samplers (moment checks), gamma special functions, empirical statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "rs/stats/distributions.hpp"
#include "rs/stats/empirical.hpp"
#include "rs/stats/rng.hpp"
#include "rs/stats/special_functions.hpp"

namespace rs::stats {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, OpenDoubleNeverZero) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextOpenDouble();
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(9);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.NextDouble();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(RngTest, BoundedRespectsRange) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.NextGaussian();
    sum += z;
    sum2 += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(12);
  Rng child = a.Split();
  EXPECT_NE(a.NextUint64(), child.NextUint64());
}

// Known answers: the first outputs of Rng(42). Every planner draw,
// committed golden digest and generated regression rests on this stream;
// a change to the xoshiro256++ step, the seeding or the substream fold
// fails here by value.
TEST(RngTest, SeededStreamMatchesKnownAnswers) {
  Rng rng(42);
  EXPECT_EQ(rng.NextUint64(), 0xD0764D4F4476689FULL);
  EXPECT_EQ(rng.NextUint64(), 0x519E4174576F3791ULL);
  EXPECT_EQ(rng.NextUint64(), 0xFBE07CFB0C24ED8CULL);
  EXPECT_EQ(rng.NextUint64(), 0xB37D9F600CD835B8ULL);
  EXPECT_EQ(rng.NextDouble(), 0x1.96463870e908dp-1);
  EXPECT_EQ(rng.NextDouble(), 0x1.2d1b3e009ca1bp-1);
  EXPECT_EQ(rng.NextDouble(), 0x1.00b8c7f910d18p-3);
  EXPECT_EQ(rng.NextOpenDouble(), 0x1.35d29c0e1db1ap-1);
  EXPECT_EQ(rng.NextOpenDouble(), 0x1.a9679ed784ae6p-3);
  EXPECT_EQ(rng.NextOpenDouble(), 0x1.dddfac6433694p-1);
  Rng sub = rng.SubstreamAt(3);
  EXPECT_EQ(sub.NextUint64(), 0x578D670B589F451FULL);
  EXPECT_EQ(sub.NextUint64(), 0x32411C4F0549CE37ULL);
  EXPECT_EQ(sub.NextUint64(), 0x4346CA0B15A58BC4ULL);
  // SubstreamAt is pure: the parent continues where it was.
  EXPECT_EQ(rng.NextUint64(), 0x8F3DFA98020E7942ULL);
}

TEST(DistributionsTest, ExponentialMoments) {
  Rng rng(20);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += SampleExponential(&rng, 2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

struct GammaCase {
  double shape;
  double scale;
};

class GammaSamplerTest : public ::testing::TestWithParam<GammaCase> {};

TEST_P(GammaSamplerTest, MeanAndVarianceMatchTheory) {
  const auto [shape, scale] = GetParam();
  Rng rng(static_cast<std::uint64_t>(shape * 100 + scale * 10));
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = SampleGamma(&rng, shape, scale);
    EXPECT_GE(g, 0.0);
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, shape * scale, 0.05 * shape * scale + 0.01);
  EXPECT_NEAR(var, shape * scale * scale, 0.1 * shape * scale * scale + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GammaSamplerTest,
                         ::testing::Values(GammaCase{0.5, 1.0},
                                           GammaCase{1.0, 2.0},
                                           GammaCase{2.5, 0.5},
                                           GammaCase{10.0, 1.0},
                                           GammaCase{100.0, 0.1}));

class PoissonSamplerTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonSamplerTest, MeanAndVarianceMatchTheory) {
  const double mean = GetParam();
  Rng rng(static_cast<std::uint64_t>(mean * 1000) + 3);
  const int n = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<double>(SamplePoisson(&rng, mean));
    EXPECT_GE(k, 0.0);
    sum += k;
    sum2 += k * k;
  }
  const double m = sum / n;
  const double v = sum2 / n - m * m;
  EXPECT_NEAR(m, mean, 0.05 * mean + 0.02);
  EXPECT_NEAR(v, mean, 0.1 * mean + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Means, PoissonSamplerTest,
                         ::testing::Values(0.1, 1.0, 5.0, 9.9, 10.1, 30.0,
                                           200.0));

TEST(DistributionsTest, PoissonZeroMean) {
  Rng rng(30);
  EXPECT_EQ(SamplePoisson(&rng, 0.0), 0);
}

TEST(DistributionsTest, LogNormalMean) {
  Rng rng(31);
  // mu, sigma chosen so mean = exp(mu + sigma²/2) = e.
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += SampleLogNormal(&rng, 0.5, 1.0);
  EXPECT_NEAR(sum / n, std::exp(1.0), 0.1);
}

TEST(DistributionsTest, WeibullShapeOneIsExponential) {
  Rng rng(32);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += SampleWeibull(&rng, 1.0, 3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(DurationDistributionTest, DeterministicIsConstant) {
  Rng rng(40);
  auto d = DurationDistribution::Deterministic(13.0);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d.Sample(&rng), 13.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 13.0);
}

TEST(DurationDistributionTest, ExponentialMeanMatches) {
  Rng rng(41);
  auto d = DurationDistribution::Exponential(20.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 20.0);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += d.Sample(&rng);
  EXPECT_NEAR(sum / n, 20.0, 0.5);
}

TEST(DurationDistributionTest, LogNormalMeanAndCv) {
  Rng rng(42);
  auto d = DurationDistribution::LogNormal(179.0, 2.0);
  EXPECT_NEAR(d.Mean(), 179.0, 1e-9);
  const int n = 400000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += d.Sample(&rng);
  EXPECT_NEAR(sum / n, 179.0, 5.0);
}

TEST(DurationDistributionTest, UniformBoundsAndMean) {
  Rng rng(43);
  auto d = DurationDistribution::Uniform(2.0, 6.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 4.0);
  for (int i = 0; i < 1000; ++i) {
    const double v = d.Sample(&rng);
    EXPECT_GE(v, 2.0);
    EXPECT_LE(v, 6.0);
  }
}

TEST(DurationDistributionTest, WeibullMean) {
  auto d = DurationDistribution::Weibull(2.0, 10.0);
  EXPECT_NEAR(d.Mean(), 10.0 * std::tgamma(1.5), 1e-9);
}

TEST(SpecialFunctionsTest, GammaPKnownValues) {
  // P(1, x) = 1 - e^{-x}.
  for (double x : {0.1, 0.5, 1.0, 2.0, 10.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
  // P(a, 0) = 0; P(a, inf) = 1.
  EXPECT_DOUBLE_EQ(RegularizedGammaP(3.0, 0.0), 0.0);
  EXPECT_NEAR(RegularizedGammaP(3.0, 1e6), 1.0, 1e-12);
}

TEST(SpecialFunctionsTest, GammaPPlusQIsOne) {
  for (double a : {0.3, 1.0, 2.5, 10.0, 50.0}) {
    for (double x : {0.01, 0.5, 1.0, 5.0, 40.0, 120.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0, 1e-10)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(SpecialFunctionsTest, GammaCdfErlangIdentity) {
  // Gamma(k, 1) CDF at x equals P(N >= k) for N ~ Poisson(x).
  // Spot check via the Poisson CDF helper: F_k(x) = 1 - PoissonCdf(k-1, x).
  for (int k : {1, 2, 5, 10}) {
    for (double x : {0.5, 2.0, 7.5}) {
      EXPECT_NEAR(GammaCdf(k, 1.0, x), 1.0 - PoissonCdf(k - 1, x), 1e-10);
    }
  }
}

class GammaQuantileTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(GammaQuantileTest, QuantileInvertsTheCdf) {
  const auto [shape, p] = GetParam();
  auto q = GammaQuantile(shape, 1.0, p);
  ASSERT_TRUE(q.ok());
  EXPECT_NEAR(RegularizedGammaP(shape, *q), p, 1e-8)
      << "shape=" << shape << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    GridSweep, GammaQuantileTest,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0, 7.0, 30.0, 150.0),
                       ::testing::Values(0.01, 0.1, 0.5, 0.9, 0.99)));

TEST(SpecialFunctionsTest, GammaQuantileScales) {
  const double q1 = *GammaQuantile(3.0, 1.0, 0.7);
  const double q5 = *GammaQuantile(3.0, 5.0, 0.7);
  EXPECT_NEAR(q5, 5.0 * q1, 1e-8);
}

TEST(SpecialFunctionsTest, GammaQuantileRejectsBadInputs) {
  EXPECT_FALSE(GammaQuantile(0.0, 1.0, 0.5).ok());
  EXPECT_FALSE(GammaQuantile(1.0, -1.0, 0.5).ok());
  EXPECT_FALSE(GammaQuantile(1.0, 1.0, 0.0).ok());
  EXPECT_FALSE(GammaQuantile(1.0, 1.0, 1.0).ok());
}

TEST(SpecialFunctionsTest, NormalCdfSymmetry) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  for (double x : {0.5, 1.0, 2.0}) {
    EXPECT_NEAR(NormalCdf(x) + NormalCdf(-x), 1.0, 1e-12);
  }
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
}

TEST(SpecialFunctionsTest, NormalQuantileInvertsCdf) {
  for (double p : {0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999}) {
    auto z = NormalQuantile(p);
    ASSERT_TRUE(z.ok());
    EXPECT_NEAR(NormalCdf(*z), p, 1e-9);
  }
}

TEST(EmpiricalTest, QuantileInterpolates) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(*Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(*Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(*Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(*Quantile(v, 1.0 / 3.0), 2.0);
}

TEST(EmpiricalTest, QuantileUnsortedInput) {
  std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(*Quantile(v, 0.5), 2.5);
}

TEST(EmpiricalTest, QuantileRejectsBadInputs) {
  EXPECT_FALSE(Quantile({}, 0.5).ok());
  EXPECT_FALSE(Quantile({1.0}, -0.1).ok());
  EXPECT_FALSE(Quantile({1.0}, 1.1).ok());
  EXPECT_FALSE(QuantileInPlace(nullptr, 0.5).ok());
}

// Regression pin for the selection-based Quantile: it must keep the exact
// type-7 (NumPy default) convention the sort-based implementation had —
// linear interpolation between the order statistics at floor/ceil of
// q·(n−1), ties and duplicates included.
TEST(EmpiricalTest, QuantileSelectionKeepsType7Convention) {
  std::vector<double> v{7.0, 1.0, 1.0, 3.0, 5.0};  // sorted: 1 1 3 5 7
  EXPECT_DOUBLE_EQ(*Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(*Quantile(v, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(*Quantile(v, 0.375), 2.0);   // Between the tie and 3.
  EXPECT_DOUBLE_EQ(*Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(*Quantile(v, 0.625), 4.0);
  EXPECT_DOUBLE_EQ(*Quantile(v, 0.9), 6.2);     // 0.6·5 + 0.4·7.
  EXPECT_DOUBLE_EQ(*Quantile(v, 1.0), 7.0);
  EXPECT_DOUBLE_EQ(*Quantile({42.0}, 0.7), 42.0);

  std::vector<double> scratch{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(*QuantileInPlace(&scratch, 0.5), 2.5);
}

// SelectOrderStatPair sorts ranges up to kSortSelectMax outright and
// selects above it; both sides of the cutoff, ties and lo == hi must give
// exactly what a full sort leaves at positions lo and hi.
TEST(EmpiricalTest, OrderStatPairMatchesFullSortAcrossTheCutoff) {
  Rng rng(2718);
  const std::size_t cutoff = kSortSelectMax;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, cutoff - 1, cutoff,
                        cutoff + 1, std::size_t{60}}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<double> values(n);
      for (auto& v : values) {
        v = SampleUniform(&rng, 0.0, 8.0);
        if (trial % 2 == 1) v = std::round(v);  // Ties on odd trials.
      }
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      const std::size_t lo = rng.NextBounded(n);
      for (std::size_t hi : {lo, std::min(lo + 1, n - 1)}) {
        std::vector<double> scratch = values;
        double v_lo = -1.0, v_hi = -1.0;
        SelectOrderStatPair(scratch.data(), n, lo, hi, &v_lo, &v_hi);
        EXPECT_EQ(v_lo, sorted[lo]) << "n=" << n << " lo=" << lo;
        EXPECT_EQ(v_hi, sorted[hi]) << "n=" << n << " hi=" << hi;
      }
    }
  }
}

TEST(EmpiricalTest, MeanVarianceMedian) {
  std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_NEAR(Variance(v), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(Median(v), 4.5);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

TEST(EmpiricalTest, MadScaleOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(MadScale({5.0, 5.0, 5.0}), 0.0);
}

TEST(EmpiricalTest, MadScaleRobustToOutlier) {
  std::vector<double> clean{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> dirty{1.0, 2.0, 3.0, 4.0, 500.0};
  EXPECT_NEAR(MadScale(clean), MadScale(dirty), 0.5 * MadScale(clean) + 1e-9);
}

TEST(EmpiricalTest, SoftThresholdProperties) {
  EXPECT_DOUBLE_EQ(SoftThreshold(5.0, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(-5.0, 2.0), -3.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(1.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(-1.5, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(0.0, 0.0), 0.0);
}

TEST(EmpiricalTest, SoftThresholdVectorized) {
  auto y = SoftThreshold(std::vector<double>{3.0, -3.0, 0.5}, 1.0);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
}

TEST(EmpiricalTest, ErrorsMetrics) {
  std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b{2.0, 2.0, 1.0};
  EXPECT_NEAR(MeanSquaredError(a, b), (1.0 + 0.0 + 4.0) / 3.0, 1e-12);
  EXPECT_NEAR(MeanAbsoluteError(a, b), (1.0 + 0.0 + 2.0) / 3.0, 1e-12);
}

TEST(EmpiricalTest, WindowedMeansDropsPartialWindow) {
  std::vector<double> v{1.0, 3.0, 5.0, 7.0, 100.0};
  auto w = WindowedMeans(v, 2);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0], 2.0);
  EXPECT_DOUBLE_EQ(w[1], 6.0);
  EXPECT_TRUE(WindowedMeans(v, 0).empty());
  EXPECT_TRUE(WindowedMeans({}, 3).empty());
}

}  // namespace
}  // namespace rs::stats

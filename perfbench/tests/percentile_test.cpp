#include "percentile.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(PercentileTest, MinSamplesMatchesTheTenBeyondRule) {
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_EQ(MinSamplesFor(0.999), 10000u);
}

TEST(PercentileTest, ExactlyEnoughSamplesIsSupported) {
  for (double q : {0.5, 0.99, 0.999}) {
    const std::size_t n = MinSamplesFor(q);
    const Percentile p = ReadPercentile(Ramp(n), q);
    EXPECT_EQ(p.samples, n);
    EXPECT_EQ(p.beyond, kMinBeyond) << "q=" << q;
    EXPECT_TRUE(p.supported) << "q=" << q;
    EXPECT_EQ(p.value, static_cast<double>(n - kMinBeyond));

    const Percentile short_by_one = ReadPercentile(Ramp(n - 1), q);
    EXPECT_FALSE(short_by_one.supported) << "q=" << q;
    EXPECT_LT(short_by_one.beyond, kMinBeyond);
  }
}

TEST(PercentileTest, NearestRankOnSmallSets) {
  EXPECT_EQ(NearestRank(1, 0.5), 0u);
  EXPECT_EQ(NearestRank(4, 0.5), 1u);
  EXPECT_EQ(NearestRank(5, 0.5), 2u);
  EXPECT_EQ(NearestRank(100, 0.99), 98u);
  EXPECT_EQ(NearestRank(10, 0.999), 9u);
}

TEST(PercentileTest, ValueIsTheMeanOfTheRankWindow) {
  // 1000 samples: p50 averages 0-based ranks 249..749, p99 984..994.
  std::vector<double> v(1000, 1.0);
  for (std::size_t i = 500; i < v.size(); ++i) v[i] = 2.0;
  EXPECT_DOUBLE_EQ(ReadPercentile(v, 0.5).value, (251.0 + 2.0 * 250.0) / 501.0);
  v[990] = 13.0;
  EXPECT_DOUBLE_EQ(ReadPercentile(v, 0.99).value, 3.0);
  // Below 1 / ((1 - q) / 2) samples the window is the nearest rank alone.
  EXPECT_EQ(ReadPercentile(Ramp(3), 0.5).value, 2.0);
  // The window is clamped to the set.
  EXPECT_DOUBLE_EQ(ReadPercentile(Ramp(10), 0.9).value, 9.0);
}

TEST(PercentileTest, EmptySetIsUnsupported) {
  const Percentile p = ReadPercentile({}, 0.5);
  EXPECT_EQ(p.samples, 0u);
  EXPECT_FALSE(p.supported);
}

TEST(PercentileTest, MedianOfOddEvenAndEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

}  // namespace
}  // namespace perfbench

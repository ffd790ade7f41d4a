// Tests for the κ threshold (Eq. 8): exact vs Monte Carlo agreement and
// qualitative behavior in λ̄, τ, and α.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

#include "rs/core/kappa.hpp"
#include "rs/stats/special_functions.hpp"

namespace rs::core {
namespace {

TEST(KappaTest, ZeroPendingTimeGivesZeroKappa) {
  // τ = 0: even the first query can always be served in time (x = ξ works),
  // so the α-quantile of γ_1/λ̄ is >= 0 and κ = 0.
  auto kappa = ComputeKappaDeterministicTau(0.1, 1.0, 0.0);
  ASSERT_TRUE(kappa.ok());
  EXPECT_EQ(*kappa, 0u);
}

TEST(KappaTest, GrowsWithLambdaBar) {
  std::size_t prev = 0;
  for (double lambda : {0.1, 1.0, 5.0, 20.0}) {
    auto kappa = ComputeKappaDeterministicTau(0.1, lambda, 13.0);
    ASSERT_TRUE(kappa.ok());
    EXPECT_GE(*kappa, prev) << "lambda " << lambda;
    prev = *kappa;
  }
  // High traffic needs a deep look-ahead: roughly λ̄·τ = 260.
  auto high = ComputeKappaDeterministicTau(0.1, 20.0, 13.0);
  ASSERT_TRUE(high.ok());
  EXPECT_GT(*high, 200u);
  EXPECT_LT(*high, 400u);
}

TEST(KappaTest, GrowsWithTau) {
  std::size_t prev = 0;
  for (double tau : {1.0, 5.0, 13.0, 60.0}) {
    auto kappa = ComputeKappaDeterministicTau(0.1, 2.0, tau);
    ASSERT_TRUE(kappa.ok());
    EXPECT_GE(*kappa, prev);
    prev = *kappa;
  }
}

TEST(KappaTest, SmallerAlphaNeedsDeeperLookahead) {
  // Smaller α (stricter QoS) makes the α-quantile smaller, so the condition
  // γ_i quantile < λ̄τ holds for more i: κ grows.
  auto strict = ComputeKappaDeterministicTau(0.01, 2.0, 13.0);
  auto loose = ComputeKappaDeterministicTau(0.5, 2.0, 13.0);
  ASSERT_TRUE(strict.ok() && loose.ok());
  EXPECT_GE(*strict, *loose);
}

TEST(KappaTest, DefinitionMatchesGammaQuantile) {
  // Verify the boundary: at κ the quantile is < λ̄τ, at κ+1 it is >= λ̄τ.
  const double alpha = 0.1, lambda = 3.0, tau = 7.0;
  auto kappa = ComputeKappaDeterministicTau(alpha, lambda, tau);
  ASSERT_TRUE(kappa.ok());
  const double threshold = lambda * tau;
  if (*kappa > 0) {
    auto q_at = stats::GammaQuantile(static_cast<double>(*kappa), 1.0, alpha);
    ASSERT_TRUE(q_at.ok());
    EXPECT_LT(*q_at, threshold);
  }
  auto q_next =
      stats::GammaQuantile(static_cast<double>(*kappa + 1), 1.0, alpha);
  ASSERT_TRUE(q_next.ok());
  EXPECT_GE(*q_next, threshold);
}

class KappaAgreementTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(KappaAgreementTest, MonteCarloAgreesWithExact) {
  const auto [alpha, lambda, tau] = GetParam();
  auto exact = ComputeKappaDeterministicTau(alpha, lambda, tau);
  ASSERT_TRUE(exact.ok());
  stats::Rng rng(99);
  auto mc = ComputeKappaMonteCarlo(
      &rng, alpha, lambda, stats::DurationDistribution::Deterministic(tau),
      20000);
  ASSERT_TRUE(mc.ok());
  // MC quantiles wobble near the boundary; allow a small relative band.
  const double tol = 2.0 + 0.1 * static_cast<double>(*exact);
  EXPECT_NEAR(static_cast<double>(*mc), static_cast<double>(*exact), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KappaAgreementTest,
    ::testing::Values(std::make_tuple(0.1, 1.0, 13.0),
                      std::make_tuple(0.1, 5.0, 13.0),
                      std::make_tuple(0.05, 2.0, 5.0),
                      std::make_tuple(0.3, 0.5, 20.0)));

TEST(KappaTest, StochasticTauIncreasesKappaVersusItsMean) {
  // With Exp(13) pending times the upper tail of τ forces deeper planning
  // than a fixed τ = 13 at small α... at quantile level α the comparison
  // depends on the left tail; just check MC runs and is finite & sane.
  stats::Rng rng(5);
  auto mc = ComputeKappaMonteCarlo(
      &rng, 0.1, 2.0, stats::DurationDistribution::Exponential(13.0), 20000);
  ASSERT_TRUE(mc.ok());
  EXPECT_LT(*mc, 200u);
}

TEST(KappaTest, RejectsBadInputs) {
  EXPECT_FALSE(ComputeKappaDeterministicTau(0.0, 1.0, 1.0).ok());
  EXPECT_FALSE(ComputeKappaDeterministicTau(1.0, 1.0, 1.0).ok());
  EXPECT_FALSE(ComputeKappaDeterministicTau(0.1, 0.0, 1.0).ok());
  EXPECT_FALSE(ComputeKappaDeterministicTau(0.1, 1.0, -1.0).ok());
  stats::Rng rng(6);
  auto pending = stats::DurationDistribution::Deterministic(1.0);
  EXPECT_FALSE(ComputeKappaMonteCarlo(nullptr, 0.1, 1.0, pending).ok());
  EXPECT_FALSE(ComputeKappaMonteCarlo(&rng, 0.1, -1.0, pending).ok());
  EXPECT_FALSE(ComputeKappaMonteCarlo(&rng, 0.1, 1.0, pending, 0).ok());
}

TEST(KappaTest, BisectionMatchesLinearScanUnderEveryCap) {
  // A cap between the doubling probes must still be bisected to: with
  // α = 0.01, λ̄ = 0.42, τ = 13 the uncapped κ is 12, so cap 14 gives 12.
  EXPECT_EQ(12u, *ComputeKappaBinarySearch(0.01, 0.42, 13.0, 14));
  for (const double alpha : {0.01, 0.1, 0.5}) {
    for (const double lambda_bar : {0.05, 0.42, 1.3, 3.0}) {
      for (const double tau : {2.0, 13.0, 40.0}) {
        for (std::size_t cap = 0; cap <= 64; ++cap) {
          const auto linear =
              ComputeKappaDeterministicTau(alpha, lambda_bar, tau, cap);
          const auto bisection =
              ComputeKappaBinarySearch(alpha, lambda_bar, tau, cap);
          ASSERT_TRUE(linear.ok() && bisection.ok());
          EXPECT_EQ(*linear, *bisection)
              << "alpha=" << alpha << " lambda_bar=" << lambda_bar
              << " tau=" << tau << " cap=" << cap;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The per-thread Gamma-quantile memo inside ComputeKappaBinarySearch must
// never change a result: cold, warm, evicted, or on another thread.

constexpr double kMemoTau = 13.0;
constexpr std::size_t kMemoMaxKappa = 20000;

using KappaTable = std::vector<std::vector<std::size_t>>;  // [λ̄][α]

struct MemoCase {
  /// Ascending λ̄. The top point puts κ past kKappaMemoMaxIndex, where the
  /// bisection leaves the memo.
  std::vector<double> lambdas;
  /// α ∈ {0.01, 0.1, 0.5}, then enough more that the α values outnumber
  /// the memo's slots, so a sweep that interleaves them evicts on every call.
  std::vector<double> alphas;
  KappaTable cold;    ///< Each entry computed on a thread of its own.
  KappaTable linear;  ///< ComputeKappaDeterministicTau's uncached scan.
};

std::size_t KappaOrZero(const Result<std::size_t>& kappa) {
  EXPECT_TRUE(kappa.ok()) << kappa.status().ToString();
  return kappa.ok() ? *kappa : 0;
}

const MemoCase& Case() {
  static const MemoCase c = [] {
    MemoCase m;
    for (double l = 0.02; l < 40.0; l *= 1.13) m.lambdas.push_back(l);
    m.lambdas.push_back(400.0);
    m.alphas = {0.01, 0.1, 0.5};
    for (std::size_t k = 0; k < 2 * kKappaMemoAlphas; ++k) {
      m.alphas.push_back(0.02 + 0.05 * static_cast<double>(k));
    }
    for (double lambda : m.lambdas) {
      auto& cold = m.cold.emplace_back();
      auto& linear = m.linear.emplace_back();
      for (double alpha : m.alphas) {
        // A new thread's memo is empty.
        std::thread([&] {
          cold.push_back(KappaOrZero(ComputeKappaBinarySearch(
              alpha, lambda, kMemoTau, kMemoMaxKappa)));
        }).join();
        linear.push_back(KappaOrZero(ComputeKappaDeterministicTau(
            alpha, lambda, kMemoTau, kMemoMaxKappa)));
      }
    }
    return m;
  }();
  return c;
}

/// λ̄ indices up the sweep and back down.
std::vector<std::size_t> UpThenDown() {
  std::vector<std::size_t> order;
  const std::size_t n = Case().lambdas.size();
  for (std::size_t l = 0; l < n; ++l) order.push_back(l);
  for (std::size_t l = n; l-- > 0;) order.push_back(l);
  return order;
}

void ExpectMemoExact(std::size_t l, std::size_t a, const char* pass) {
  const MemoCase& c = Case();
  const std::size_t kappa = KappaOrZero(ComputeKappaBinarySearch(
      c.alphas[a], c.lambdas[l], kMemoTau, kMemoMaxKappa));
  EXPECT_EQ(kappa, c.cold[l][a])
      << pass << " vs cold at lambda " << c.lambdas[l] << ", alpha "
      << c.alphas[a];
  EXPECT_EQ(kappa, c.linear[l][a])
      << pass << " vs linear scan at lambda " << c.lambdas[l] << ", alpha "
      << c.alphas[a];
}

/// Up-then-down sweeps, first into an empty memo and then warm, with every
/// α at each λ̄ (α inner: every call evicts).
void SweepInterleaved() {
  for (const char* pass : {"cold pass", "warm pass"}) {
    for (std::size_t l : UpThenDown()) {
      for (std::size_t a = 0; a < Case().alphas.size(); ++a) {
        ExpectMemoExact(l, a, pass);
      }
    }
  }
}

TEST(KappaMemoTest, SweepReachesPastTheMemoBounds) {
  static_assert(kKappaMemoMaxIndex < kMemoMaxKappa);
  EXPECT_GT(Case().alphas.size(), kKappaMemoAlphas);
  std::size_t deepest = 0;
  for (const auto& row : Case().linear) {
    for (std::size_t kappa : row) deepest = std::max(deepest, kappa);
  }
  EXPECT_GT(deepest, kKappaMemoMaxIndex);
  EXPECT_LT(deepest, kMemoMaxKappa);
}

TEST(KappaMemoTest, ColdBisectionMatchesLinearScan) {
  EXPECT_EQ(Case().cold, Case().linear);
}

TEST(KappaMemoTest, SweepsMatchColdUnderEviction) {
  std::thread(SweepInterleaved).join();
}

TEST(KappaMemoTest, SweepsMatchColdOneAlphaAtATime) {
  // α outer: each α's ladder stays resident for its whole sweep.
  std::thread([] {
    for (std::size_t a = 0; a < Case().alphas.size(); ++a) {
      for (const char* pass : {"cold pass", "warm pass"}) {
        for (std::size_t l : UpThenDown()) ExpectMemoExact(l, a, pass);
      }
    }
  }).join();
}

TEST(KappaMemoTest, ConcurrentSweepsMatchCold) {
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) workers.emplace_back(SweepInterleaved);
  for (auto& worker : workers) worker.join();
}

}  // namespace
}  // namespace rs::core

// Property tests for the optimized planning/training hot paths: the batched
// sampling layer and the allocation-free decision kernel must be *exactly*
// (bitwise) equivalent to their naive reference implementations, and the
// pool-parallel training passes must be byte-identical for any worker
// count. These are the invariants that make the hot path safe to keep
// optimizing; the planning round itself is held to core::RunReferenceRound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "rs/common/thread_pool.hpp"
#include "rs/core/admm.hpp"
#include "rs/core/decision.hpp"
#include "rs/core/kappa.hpp"
#include "rs/core/pipeline.hpp"
#include "rs/core/sequential_scaler.hpp"
#include "rs/stats/distributions.hpp"
#include "rs/stats/empirical.hpp"
#include "rs/stats/rng.hpp"
#include "rs/timeseries/periodicity.hpp"
#include "rs/workload/intensity.hpp"
#include "rs/workload/synthetic.hpp"
#include "rs/workload/trace.hpp"

namespace rs {
namespace {

using core::DecisionKernel;
using core::McSamples;
using workload::PiecewiseConstantIntensity;

PiecewiseConstantIntensity RandomIntensity(stats::Rng* rng, std::size_t bins,
                                           bool with_zero_bins,
                                           double tail_rate) {
  std::vector<double> rates(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    rates[i] = stats::SampleUniform(rng, 0.1, 5.0);
    if (with_zero_bins && rng->NextDouble() < 0.2) rates[i] = 0.0;
  }
  rates.back() = tail_rate;
  auto made = PiecewiseConstantIntensity::Make(
      std::move(rates), stats::SampleUniform(rng, 0.5, 90.0));
  EXPECT_TRUE(made.ok());
  return *std::move(made);
}

// --- Batched inverse cumulative --------------------------------------------

TEST(InverseCumulativeBatchTest, MatchesScalarBitwiseOnRandomInputs) {
  stats::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto intensity =
        RandomIntensity(&rng, 3 + rng.NextBounded(40), trial % 2 == 1, 1.0);
    const double top = intensity.Cumulative(intensity.horizon());
    std::vector<double> targets(1 + rng.NextBounded(200));
    for (auto& t : targets) {
      const double u = rng.NextDouble();
      if (u < 0.05) {
        t = 0.0;  // Λ(0) boundary.
      } else if (u < 0.15) {
        t = top * (1.0 + rng.NextDouble());  // Beyond the horizon (tail).
      } else if (u < 0.30) {
        // Exactly on a cumulative-grid boundary: the tie case.
        const auto bin = rng.NextBounded(
            static_cast<std::uint64_t>(intensity.bins()));
        t = intensity.Cumulative(intensity.dt() * static_cast<double>(bin));
      } else {
        t = top * rng.NextDouble();
      }
    }
    std::vector<double> batch;
    std::vector<std::uint32_t> order;
    ASSERT_TRUE(intensity.InverseCumulativeBatch(targets, &batch, &order).ok());
    ASSERT_EQ(batch.size(), targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      auto scalar = intensity.InverseCumulative(targets[i]);
      ASSERT_TRUE(scalar.ok());
      // Bitwise equality, not near-equality: the batch sweep must replicate
      // the scalar arithmetic exactly.
      EXPECT_EQ(batch[i], scalar.ValueOrDie()) << "target " << targets[i];
    }
  }
}

TEST(InverseCumulativeBatchTest, SingleTargetAndErrors) {
  auto intensity = *PiecewiseConstantIntensity::Make({2.0, 0.0}, 10.0);
  std::vector<double> out;
  std::vector<std::uint32_t> order;

  ASSERT_TRUE(intensity.InverseCumulativeBatch({10.0}, &out, &order).ok());
  EXPECT_EQ(out[0], intensity.InverseCumulative(10.0).ValueOrDie());

  // Negative target and beyond-horizon-with-zero-tail fail like the scalar.
  EXPECT_FALSE(intensity.InverseCumulativeBatch({-1.0}, &out, &order).ok());
  EXPECT_FALSE(intensity.InverseCumulativeBatch({21.0}, &out, &order).ok());
  EXPECT_FALSE(intensity.InverseCumulative(21.0).ok());
}

// --- Bulk RNG fills ---------------------------------------------------------

TEST(BulkFillTest, ExponentialFillMatchesScalarDrawOrder) {
  stats::Rng scalar_rng(99), fill_rng(99);
  std::vector<double> filled(257);
  stats::SampleExponentialFill(&fill_rng, 0.37, filled.data(), filled.size());
  for (double v : filled) {
    EXPECT_EQ(v, stats::SampleExponential(&scalar_rng, 0.37));
  }
  // Generator states stayed in lockstep too.
  EXPECT_EQ(fill_rng.NextUint64(), scalar_rng.NextUint64());
}

TEST(BulkFillTest, ZigguratExponentialIsStatisticallyExponential) {
  stats::Rng rng(2718281828);
  const std::size_t n = 2'000'000;
  double sum = 0.0, sum_sq = 0.0;
  std::size_t tail_count = 0, below_log2 = 0;
  std::vector<double> buf(4096);
  for (std::size_t done = 0; done < n; done += buf.size()) {
    stats::SampleExponentialZigguratFill(&rng, 1.0, buf.data(), buf.size());
    for (double v : buf) {
      ASSERT_GE(v, 0.0);
      sum += v;
      sum_sq += v * v;
      if (v > 7.69711747013104972) ++tail_count;  // P = e^−r ≈ 4.54e−4.
      if (v < M_LN2) ++below_log2;                // P = 1/2 exactly.
    }
  }
  const auto dn = static_cast<double>(n);
  EXPECT_NEAR(sum / dn, 1.0, 0.005);            // Mean 1 (±~7σ).
  EXPECT_NEAR(sum_sq / dn, 2.0, 0.02);          // E[X²] = 2.
  EXPECT_NEAR(static_cast<double>(below_log2) / dn, 0.5, 0.002);
  EXPECT_NEAR(static_cast<double>(tail_count) / dn,
              std::exp(-7.69711747013104972), 1.5e-4);
  // Rate scaling is a plain division of the unit draw.
  stats::Rng a(5), b(5);
  EXPECT_EQ(stats::SampleExponentialZiggurat(&a, 4.0),
            stats::SampleExponentialZiggurat(&b, 1.0) / 4.0);
}

TEST(BulkFillTest, BlockedZigguratFillMatchesScalarBitwise) {
  // The fill is restructured into 8-wide blocks with a scalar tail; every
  // block length 0..7 of tail and every fill size around the block width
  // must reproduce the scalar draw sequence (values AND generator state)
  // bitwise, including when a block hits the ziggurat slow path and the
  // generator is rolled back.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    for (std::size_t n = 0; n <= 40; ++n) {
      for (double rate : {1.0, 0.37, 1e-8, 1e8}) {
        stats::Rng fill_rng(seed * 7919 + n);
        stats::Rng scalar_rng(seed * 7919 + n);
        std::vector<double> filled(n + 1, -1.0);
        stats::SampleExponentialZigguratFill(&fill_rng, rate, filled.data(),
                                             n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(filled[i],
                    stats::SampleExponentialZiggurat(&scalar_rng, rate))
              << "seed " << seed << ", n " << n << ", rate " << rate
              << ", index " << i;
        }
        EXPECT_EQ(filled[n], -1.0) << "wrote past the end";
        EXPECT_EQ(fill_rng.NextUint64(), scalar_rng.NextUint64());
      }
    }
  }
  // A long fill is statistically certain to exercise the slow path and the
  // tail restart (P ≈ 1.1% per draw): the states must still be in lockstep.
  stats::Rng fill_rng(424242), scalar_rng(424242);
  std::vector<double> filled(100000);
  stats::SampleExponentialZigguratFill(&fill_rng, 1.0, filled.data(),
                                       filled.size());
  for (std::size_t i = 0; i < filled.size(); ++i) {
    ASSERT_EQ(filled[i], stats::SampleExponentialZiggurat(&scalar_rng, 1.0));
  }
  EXPECT_EQ(fill_rng.NextUint64(), scalar_rng.NextUint64());
}

TEST(BulkFillTest, SubstreamAtIsPureAndDeterministic) {
  stats::Rng a(1234), b(1234);
  // Same state + same index → bitwise-identical children; the derivation
  // never advances the parent.
  stats::Rng child_a = a.SubstreamAt(7);
  stats::Rng child_b = b.SubstreamAt(7);
  EXPECT_EQ(child_a.NextUint64(), child_b.NextUint64());
  EXPECT_EQ(a.NextUint64(), b.NextUint64());  // Parents still in lockstep.

  // Distinct indices decorrelate; distinct parent states decorrelate.
  stats::Rng c(1234);
  EXPECT_NE(c.SubstreamAt(0).NextUint64(), c.SubstreamAt(1).NextUint64());
  stats::Rng d(1234);
  (void)d.NextUint64();
  EXPECT_NE(c.SubstreamAt(3).NextUint64(), d.SubstreamAt(3).NextUint64());

  // Two-level derivation (per-query, per-block) is deterministic too.
  EXPECT_EQ(c.SubstreamAt(5).SubstreamAt(9).NextUint64(),
            c.SubstreamAt(5).SubstreamAt(9).NextUint64());
}

TEST(BulkFillTest, GammaFillMatchesScalarDrawOrder) {
  stats::Rng scalar_rng(123), fill_rng(123);
  std::vector<double> filled(64);
  stats::SampleGammaFill(&fill_rng, 2.5, 1.5, filled.data(), filled.size());
  for (double v : filled) {
    EXPECT_EQ(v, stats::SampleGamma(&scalar_rng, 2.5, 1.5));
  }
  EXPECT_EQ(fill_rng.NextUint64(), scalar_rng.NextUint64());
}

// --- Decision kernel vs reference solvers ----------------------------------

McSamples RandomSamples(stats::Rng* rng, std::size_t r_count, bool with_ties) {
  McSamples s;
  s.xi.resize(r_count);
  s.tau.resize(r_count);
  for (std::size_t r = 0; r < r_count; ++r) {
    s.xi[r] = stats::SampleUniform(rng, 0.0, 60.0);
    s.tau[r] = stats::SampleUniform(rng, 0.0, 20.0);
  }
  if (with_ties && r_count >= 4) {
    // Force breakpoint collisions: duplicate arrivals, zero pending times
    // (slack == ξ cross-family ties), and a repeated slack value.
    s.xi[1] = s.xi[0];
    s.tau[1] = s.tau[0];
    s.tau[2] = 0.0;
    s.xi[3] = s.xi[2] - s.tau[2] + s.tau[3];
  }
  return s;
}

TEST(DecisionKernelTest, SolversMatchReferenceBitwise) {
  stats::Rng rng(2022);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t r_count = 1 + rng.NextBounded(120);
    const McSamples s = RandomSamples(&rng, r_count, trial % 3 == 0);
    const double alpha = stats::SampleUniform(&rng, 0.01, 0.99);
    const double rt_excess = stats::SampleUniform(&rng, 0.0, 12.0);
    const double idle_budget = stats::SampleUniform(&rng, 0.0, 30.0);

    DecisionKernel kernel;
    kernel.Bind(s);

    auto hp_ref = core::SolveHpConstrained(s, alpha);
    auto hp_opt = kernel.SolveHp(alpha);
    ASSERT_TRUE(hp_ref.ok() && hp_opt.ok());
    EXPECT_EQ(hp_ref->creation_time, hp_opt->creation_time);
    EXPECT_EQ(hp_ref->feasible, hp_opt->feasible);

    auto rt_ref = core::SolveRtConstrained(s, rt_excess);
    auto rt_opt = kernel.SolveRt(rt_excess);
    ASSERT_TRUE(rt_ref.ok() && rt_opt.ok());
    EXPECT_EQ(rt_ref->creation_time, rt_opt->creation_time);
    EXPECT_EQ(rt_ref->feasible, rt_opt->feasible);
    EXPECT_EQ(rt_ref->unbounded, rt_opt->unbounded);

    auto cost_ref = core::SolveCostConstrained(s, idle_budget);
    auto cost_opt = kernel.SolveCost(idle_budget);
    ASSERT_TRUE(cost_ref.ok() && cost_opt.ok());
    EXPECT_EQ(cost_ref->creation_time, cost_opt->creation_time);
    EXPECT_EQ(cost_ref->unbounded, cost_opt->unbounded);

    // A second solve on the same bind (prepared state now cached) must not
    // drift either.
    auto hp_again = kernel.SolveHp(alpha);
    ASSERT_TRUE(hp_again.ok());
    EXPECT_EQ(hp_again->creation_time, hp_opt->creation_time);
  }
}

TEST(DecisionKernelTest, InfeasibleAndUnboundedEdges) {
  // All slacks negative: HP infeasible at any level.
  McSamples s;
  s.xi = {1.0, 2.0, 0.5};
  s.tau = {10.0, 10.0, 10.0};
  DecisionKernel kernel;
  kernel.Bind(s);
  auto hp = kernel.SolveHp(0.5);
  ASSERT_TRUE(hp.ok());
  EXPECT_FALSE(hp->feasible);
  EXPECT_EQ(hp->creation_time, 0.0);

  // rt_excess over mean(τ): unbounded, like the reference.
  auto rt = kernel.SolveRt(11.0);
  ASSERT_TRUE(rt.ok());
  EXPECT_TRUE(rt->unbounded);
  auto rt_ref = core::SolveRtConstrained(s, 11.0);
  ASSERT_TRUE(rt_ref.ok());
  EXPECT_TRUE(rt_ref->unbounded);

  // Budget already satisfied at x = 0 (all slack negative → Ĝ(0) = 0).
  auto cost = kernel.SolveCost(0.0);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(cost->creation_time, 0.0);

  // R = 1.
  McSamples one;
  one.xi = {5.0};
  one.tau = {2.0};
  kernel.Bind(one);
  auto hp1 = kernel.SolveHp(0.3);
  auto hp1_ref = core::SolveHpConstrained(one, 0.3);
  ASSERT_TRUE(hp1.ok() && hp1_ref.ok());
  EXPECT_EQ(hp1->creation_time, hp1_ref->creation_time);
  auto rt1 = kernel.SolveRt(0.5);
  auto rt1_ref = core::SolveRtConstrained(one, 0.5);
  ASSERT_TRUE(rt1.ok() && rt1_ref.ok());
  EXPECT_EQ(rt1->creation_time, rt1_ref->creation_time);

  // Unbound / invalid inputs fail like the free functions.
  DecisionKernel unbound;
  EXPECT_FALSE(unbound.SolveHp(0.5).ok());
  EXPECT_FALSE(kernel.SolveHp(0.0).ok());
  EXPECT_FALSE(kernel.SolveRt(-1.0).ok());
  EXPECT_FALSE(kernel.SolveCost(-1.0).ok());
}

TEST(DecisionKernelTest, CurveQueriesMatchNaiveEstimators) {
  stats::Rng rng(555);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t r_count = 1 + rng.NextBounded(80);
    const McSamples s = RandomSamples(&rng, r_count, trial % 4 == 0);
    DecisionKernel kernel;
    kernel.Bind(s);
    for (int c = 0; c < 30; ++c) {
      // Random candidates plus exact breakpoints (ξ and slack values).
      double x = stats::SampleUniform(&rng, -5.0, 70.0);
      if (c % 3 == 1) x = s.xi[rng.NextBounded(r_count)];
      if (c % 3 == 2) {
        const auto r = rng.NextBounded(r_count);
        x = s.xi[r] - s.tau[r];
      }
      EXPECT_NEAR(kernel.ExpectedWait(x), core::EstimateExpectedWait(s, x),
                  1e-9 * static_cast<double>(r_count) + 1e-12);
      EXPECT_NEAR(kernel.ExpectedIdle(x), core::EstimateExpectedIdle(s, x),
                  1e-9 * static_cast<double>(r_count) + 1e-12);
    }
  }
}

// --- Planner parity: the optimized round vs the reference oracle -----------

void ExpectSameAction(const sim::ScalingAction& expected,
                      const sim::ScalingAction& got, std::size_t round) {
  ASSERT_EQ(expected.creation_times.size(), got.creation_times.size())
      << "round " << round;
  for (std::size_t k = 0; k < expected.creation_times.size(); ++k) {
    EXPECT_EQ(expected.creation_times[k], got.creation_times[k])
        << "round " << round << ", creation " << k;
  }
  EXPECT_EQ(expected.deletions, got.deletions) << "round " << round;
}

/// Drives `policy` through Initialize and `rounds` planning ticks and, in
/// lockstep, replays each tick's PlanningRound through RunReferenceRound on
/// a master generator seeded like the policy's. The policy keeps one
/// workspace across its rounds, so the HP warm pivots (hp_cuts) are in play
/// from the second round on.
void ExpectPolicyMatchesOracle(core::RobustScalerPolicy* policy,
                               std::size_t rounds) {
  const double interval = policy->planning_interval();
  stats::Rng oracle_master(policy->options().seed);
  std::vector<double> history;
  sim::SimContext ctx;
  ctx.arrival_history = &history;
  std::size_t outstanding = 0;
  for (std::size_t i = 0; i <= rounds; ++i) {
    ctx.now = static_cast<double>(i) * interval;
    if (i > 0) {
      // Exercise both the outstanding > 0 (Gamma warm-up, skip > 0) and the
      // cold paths.
      ctx.instances_alive = i % 3 == 0 ? 0 : outstanding / 2;
      ctx.scheduled_creations = i % 3 == 2 ? outstanding / 4 : 0;
    }
    const auto expected =
        core::RunReferenceRound(policy->PlanningRound(ctx), &oracle_master);
    const auto got =
        i == 0 ? policy->Initialize(ctx) : policy->OnPlanningTick(ctx);
    ExpectSameAction(expected, got, i);
    outstanding = std::max<std::size_t>(got.creation_times.size(), 1);
  }
}

TEST(PlannerParityTest, PolicyRoundsMatchReferenceOracle) {
  // Every pending kind × variant, with R below and above one 128-path draw
  // block. R = 8 and R = 20 (azure-durable's) sort with the comparison
  // network and R = 300 with the radix passes; the oracle sorts with
  // std::sort throughout.
  stats::Rng rng(31337);
  const auto intensity = RandomIntensity(&rng, 64, false, 2.0);
  const std::vector<stats::DurationDistribution> pendings = {
      stats::DurationDistribution::Deterministic(13.0),
      stats::DurationDistribution::Exponential(9.0),
      stats::DurationDistribution::Uniform(2.0, 8.0),
  };
  const std::vector<core::ScalerVariant> variants = {
      core::ScalerVariant::kHittingProbability,
      core::ScalerVariant::kResponseTime,
      core::ScalerVariant::kCost,
  };
  for (const auto& pending : pendings) {
    for (auto variant : variants) {
      for (std::size_t mc : {std::size_t{8}, std::size_t{20},
                             std::size_t{64}, std::size_t{300}}) {
        SCOPED_TRACE(::testing::Message() << "variant "
                                          << static_cast<int>(variant)
                                          << ", R=" << mc);
        core::SequentialScalerOptions options;
        options.variant = variant;
        options.mc_samples = mc;
        options.planning_interval = 4.0;
        options.seed = 20260730;
        options.rt_excess = 0.5;
        options.idle_budget = 1.0;
        core::RobustScalerPolicy policy(intensity, pending, options);
        ExpectPolicyMatchesOracle(&policy, 16);
        EXPECT_GT(policy.planning_workspace_bytes(), 0u)
            << "planning scratch must be retained for the next round";
      }
    }
  }
}

TEST(PlannerParityTest, SkippedRoundsMatchReferenceOracle) {
  // HpCountScaler's shape: rounds that plan the (κ+1)-th … (κ+m)-th
  // upcoming queries (skip = κ > 0) through one workspace, so the same
  // query indices recur and hit their warm pivots.
  stats::Rng rng(40);
  const auto intensity = RandomIntensity(&rng, 48, false, 1.5);
  for (const auto& pending : {stats::DurationDistribution::Deterministic(13.0),
                              stats::DurationDistribution::Exponential(7.0)}) {
    core::RoundParams round;
    round.forecast = &intensity;
    round.pending = &pending;
    round.alpha = 0.1;
    round.r_count = 150;
    stats::Rng master(4711), oracle_master(4711);
    core::PlanWorkspace ws;
    for (std::size_t i = 0; i < 12; ++i) {
      round.now = round.emit_origin = static_cast<double>(i) * 1.7;
      round.skip = i == 0 ? 0 : 9;
      round.count = i == 0 ? 11 : 2;
      ExpectSameAction(core::RunReferenceRound(round, &oracle_master),
                       core::RunMonteCarloRound(round, &master, &ws), i);
    }
    EXPECT_EQ(master.NextUint64(), oracle_master.NextUint64());
    if (pending.kind() == stats::DurationDistribution::Kind::kDeterministic) {
      EXPECT_GT(ws.hp_cuts.at(9), 0.0) << "warm pivot of a recurring index";
    }
  }
}

TEST(PlannerParityTest, WorkspaceShrinksWhenRDrops) {
  // Drive a real policy so the draw buffers, solve scratch, and kernel all
  // warm up at the large R, then shrink the bare workspace via EnsureSize.
  stats::Rng rng(11);
  const auto intensity = RandomIntensity(&rng, 32, false, 2.0);
  core::SequentialScalerOptions options;
  options.mc_samples = 4000;
  options.planning_interval = 4.0;
  core::RobustScalerPolicy policy(
      intensity, stats::DurationDistribution::Exponential(5.0), options);
  std::vector<double> history;
  sim::SimContext ctx;
  ctx.arrival_history = &history;
  (void)policy.Initialize(ctx);
  const std::size_t large = policy.planning_workspace_bytes();
  EXPECT_GT(large, 4000u * sizeof(double));

  core::PlanWorkspace ws;
  ws.EnsureSize(10000);
  // As a stochastic-τ solve at R=10000 leaves the sample buffers.
  ws.samples.xi.resize(10000);
  ws.samples.tau.resize(10000);
  const std::size_t warm = ws.RetainedBytes();
  ws.EnsureSize(100);
  const std::size_t shrunk = ws.RetainedBytes();
  // Shrink-to-fit: a tenant whose R drops must stop pinning peak memory.
  EXPECT_LT(shrunk, warm / 10);
  EXPECT_GT(shrunk, 0u);
}

// --- Training parity across worker counts ----------------------------------

TEST(TrainingParityTest, KappaMonteCarloIdenticalAcrossWorkerCounts) {
  const auto pending = stats::DurationDistribution::Exponential(13.0);
  std::vector<std::size_t> kappas;
  std::vector<std::uint64_t> rng_states;
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    common::ThreadPool pool(workers);
    stats::Rng rng(606);
    auto kappa = core::ComputeKappaMonteCarlo(&rng, 0.1, 3.0, pending, 2000,
                                              100000, &pool);
    ASSERT_TRUE(kappa.ok());
    kappas.push_back(kappa.ValueOrDie());
    // The caller's generator must also end in the same state (substream
    // seeds are drawn from it serially, never concurrently).
    rng_states.push_back(rng.NextUint64());
  }
  EXPECT_EQ(kappas[0], kappas[1]);
  EXPECT_EQ(kappas[0], kappas[2]);
  EXPECT_GT(kappas[0], 0u);
  EXPECT_EQ(rng_states[0], rng_states[1]);
  EXPECT_EQ(rng_states[0], rng_states[2]);
}

TEST(TrainingParityTest, FitNhppIdenticalAcrossWorkerCounts) {
  stats::Rng rng(17);
  std::vector<double> counts(600);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double level =
        20.0 + 15.0 * std::sin(2.0 * M_PI * static_cast<double>(i % 48) / 48.0);
    counts[i] = static_cast<double>(stats::SamplePoisson(&rng, level));
  }
  core::NhppConfig config;
  config.dt = 60.0;
  config.beta1 = 10.0;
  config.beta2 = 50.0;
  config.period = 48;
  core::AdmmOptions options;
  options.max_iterations = 40;

  std::vector<std::vector<double>> fits;
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    common::ThreadPool pool(workers);
    options.pool = &pool;
    auto model = core::FitNhpp(counts, config, options);
    ASSERT_TRUE(model.ok());
    fits.push_back(model->Intensity());
  }
  EXPECT_EQ(fits[0], fits[1]);
  EXPECT_EQ(fits[0], fits[2]);
}

TEST(TrainingParityTest, StoppingRuleIdenticalAcrossWorkerCounts) {
  // Default options, so the fit stops on the scaled rule and balances ρ:
  // every reduction those decisions read must be pool-size independent.
  // 2500 bins span three ADMM chunks, so the pool really splits the work.
  stats::Rng rng(23);
  std::vector<double> counts(2500);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double level =
        8.0 + 6.0 * std::sin(2.0 * M_PI * static_cast<double>(i % 96) / 96.0);
    counts[i] = static_cast<double>(stats::SamplePoisson(&rng, level));
  }
  core::NhppConfig config;
  config.dt = 60.0;
  config.beta1 = 10.0;
  config.beta2 = 50.0;
  config.period = 96;

  std::vector<std::vector<double>> fits;
  std::vector<core::AdmmInfo> infos;
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    common::ThreadPool pool(workers);
    core::AdmmOptions options;
    options.pool = &pool;
    core::AdmmInfo info;
    auto model = core::FitNhpp(counts, config, options, &info);
    ASSERT_TRUE(model.ok());
    fits.push_back(model->log_intensity());
    infos.push_back(info);
  }
  EXPECT_TRUE(infos[0].converged);
  for (std::size_t i = 1; i < fits.size(); ++i) {
    EXPECT_EQ(fits[0], fits[i]);
    EXPECT_EQ(infos[0].iterations, infos[i].iterations);
    EXPECT_EQ(infos[0].rho, infos[i].rho);
    EXPECT_EQ(infos[0].primal_residual, infos[i].primal_residual);
    EXPECT_EQ(infos[0].dual_residual, infos[i].dual_residual);
  }
}

TEST(TrainingParityTest, FullPipelineIdenticalAcrossWorkerCounts) {
  auto synth = workload::MakeAlibabaLikeTrace();
  ASSERT_TRUE(synth.ok());
  auto split = synth->trace.SplitAt(2.0 * 86400.0);

  std::vector<std::vector<double>> forecasts;
  std::vector<std::size_t> periods;
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    common::ThreadPool pool(workers);
    core::PipelineOptions options;
    options.dt = 600.0;
    options.forecast_horizon = 6.0 * 3600.0;
    options.training_pool = &pool;
    auto trained = core::TrainRobustScaler(split.first, options);
    ASSERT_TRUE(trained.ok());
    forecasts.push_back(trained->forecast.rates());
    periods.push_back(trained->period.period);
  }
  EXPECT_EQ(periods[0], periods[1]);
  EXPECT_EQ(periods[0], periods[2]);
  EXPECT_EQ(forecasts[0], forecasts[1]);
  EXPECT_EQ(forecasts[0], forecasts[2]);
}

// --- Quantile selection -----------------------------------------------------

TEST(QuantileSelectTest, MatchesFullSortBitwise) {
  stats::Rng rng(8080);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> values(1 + rng.NextBounded(300));
    for (auto& v : values) {
      v = stats::SampleUniform(&rng, -50.0, 50.0);
      if (rng.NextDouble() < 0.2) v = std::round(v);  // Inject ties.
    }
    const double q = rng.NextDouble();
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    auto expected = stats::QuantileSorted(sorted, q);
    auto via_select = stats::Quantile(values, q);
    auto in_place = stats::QuantileInPlace(&values, q);
    ASSERT_TRUE(expected.ok() && via_select.ok() && in_place.ok());
    EXPECT_EQ(expected.ValueOrDie(), via_select.ValueOrDie());
    EXPECT_EQ(expected.ValueOrDie(), in_place.ValueOrDie());
  }
}

}  // namespace
}  // namespace rs

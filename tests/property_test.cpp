// Property-based tests: invariants that must hold for random workloads and
// strategies, not just hand-picked cases — engine accounting identities,
// Poisson-sampler statistics, decision-rule constraint satisfaction, and
// the spike-train periodicity fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "rs/api/api.hpp"
#include "rs/baselines/backup_pool.hpp"
#include "rs/core/decision.hpp"
#include "rs/core/kappa.hpp"
#include "rs/core/pipeline.hpp"
#include "rs/simulator/engine.hpp"
#include "rs/simulator/metrics.hpp"
#include "rs/stats/distributions.hpp"
#include "rs/stats/empirical.hpp"
#include "rs/stats/rng.hpp"
#include "rs/timeseries/periodicity.hpp"
#include "rs/workload/nhpp_sampler.hpp"
#include "rs/workload/synthetic.hpp"

namespace rs {
namespace {

// ---------------------------------------------------------------------------
// Engine accounting invariants under random workloads and pool sizes.
// ---------------------------------------------------------------------------

struct EngineCase {
  std::uint64_t seed;
  double rate;
  std::size_t pool;
};

class EngineInvariantTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineInvariantTest, AccountingIdentitiesHold) {
  const auto [seed, rate, pool] = GetParam();
  stats::Rng rng(seed);
  auto intensity = *workload::PiecewiseConstantIntensity::Make(
      std::vector<double>(50, rate), 100.0);
  auto trace = *workload::MakeTraceFromIntensity(
      &rng, intensity, stats::DurationDistribution::Exponential(15.0));

  baseline::BackupPool bp(pool);
  sim::EngineOptions opts;
  opts.pending = stats::DurationDistribution::Uniform(5.0, 20.0);
  opts.seed = seed * 3 + 1;
  auto result = sim::Simulate(trace, &bp, opts);
  ASSERT_TRUE(result.ok());

  // Every query produced exactly one outcome, in arrival order.
  ASSERT_EQ(result->queries.size(), trace.size());
  for (std::size_t i = 1; i < result->queries.size(); ++i) {
    EXPECT_LE(result->queries[i - 1].arrival_time,
              result->queries[i].arrival_time);
  }

  std::size_t served = 0;
  for (const auto& inst : result->instances) {
    EXPECT_GE(inst.ready_time, inst.creation_time);
    EXPECT_GE(inst.lifecycle_cost, -1e-9);
    EXPECT_GE(inst.end_time, inst.creation_time);
    if (inst.served_query) ++served;
  }
  // Exactly one instance serves each query.
  EXPECT_EQ(served, result->queries.size());
  // Pool strategies can only leave up to `pool` unused instances behind.
  EXPECT_LE(result->instances.size(), result->queries.size() + pool);

  for (const auto& q : result->queries) {
    EXPECT_GE(q.wait_time, 0.0);
    EXPECT_NEAR(q.response_time, q.wait_time + q.processing_time, 1e-9);
    // Hit if and only if no waiting occurred.
    EXPECT_EQ(q.hit, q.wait_time == 0.0);
    // A cold start always pays the full pending time (it waits for its own
    // instance), so it can never be a hit.
    if (q.cold_start) {
      EXPECT_FALSE(q.hit);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomCases, EngineInvariantTest,
    ::testing::Values(EngineCase{1, 0.02, 0}, EngineCase{2, 0.05, 1},
                      EngineCase{3, 0.10, 3}, EngineCase{4, 0.30, 5},
                      EngineCase{5, 1.00, 2}, EngineCase{6, 0.01, 8}));

// ---------------------------------------------------------------------------
// Engine-vs-mirror parity: for random workloads and every registry
// strategy, the online Observe/Plan mirror must emit the exact action
// sequence of a batch engine replay — including with decision wall time
// charged through fake DecisionClocks, and with arrivals snapped onto the
// planning grid so tick/creation/arrival tie-breaking is exercised.
// ---------------------------------------------------------------------------

struct ParityCase {
  std::uint64_t seed;
  const char* spec;      ///< Registry strategy spec string.
  bool charge;           ///< Charge decision wall time (fake clocks).
};

void PrintTo(const ParityCase& c, std::ostream* os) {
  *os << c.spec << " seed=" << c.seed << (c.charge ? " charged" : "");
}

class ServingParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(ServingParityTest, MirrorMatchesEngineActionSequence) {
  const auto param = GetParam();
  constexpr double kTick = 2.0;

  // Random sinusoidal workload, split into train/test.
  const double period_s = 600.0, dt = 30.0, horizon = 8.0 * period_s;
  stats::Rng rng(param.seed);
  std::vector<double> rates;
  for (double t = 0.5 * dt; t < horizon; t += dt) {
    const double phase = std::fmod(t, period_s) / period_s;
    rates.push_back(0.35 + 0.25 * std::sin(2.0 * M_PI * phase));
  }
  auto intensity = *workload::PiecewiseConstantIntensity::Make(rates, dt);
  auto trace = *workload::MakeTraceFromIntensity(
      &rng, intensity, stats::DurationDistribution::Exponential(15.0));
  auto [train, test] = trace.SplitAt(horizon - 2.0 * period_s);

  // Snap ~25% of test arrivals onto the planning grid to force events at
  // tick/creation/arrival tie points (the fragile part of both event loops).
  std::vector<workload::Query> queries = test.queries();
  for (auto& q : queries) {
    if (rng.NextDouble() < 0.25) {
      q.arrival_time = std::floor(q.arrival_time / kTick) * kTick;
    }
  }
  std::sort(queries.begin(), queries.end(),
            [](const auto& a, const auto& b) {
              return a.arrival_time < b.arrival_time;
            });
  workload::Trace snapped(queries, test.horizon());

  auto spec = api::ParseStrategySpec(param.spec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto build = [&]() {
    return api::ScalerBuilder()
        .WithTrace(train)
        .WithBinWidth(dt)
        .WithForecastHorizon(snapped.horizon())
        .WithStrategy(*spec)
        .WithPlanningInterval(kTick)
        .WithMcSamples(60)
        .Build();
  };
  auto batch = build();
  auto online = build();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(online.ok()) << online.status().ToString();

  sim::FakeDecisionClock batch_clock(0.125);
  sim::FakeDecisionClock online_clock(0.125);
  sim::EngineOptions engine;
  engine.charge_decision_wall_time = param.charge;
  engine.decision_clock = &batch_clock;
  sim::EngineOptions mirror = engine;
  mirror.decision_clock = &online_clock;
  ASSERT_TRUE(online->ConfigureServing(mirror).ok());

  api::RecordingAutoscaler recorder(batch->strategy());
  auto replay = sim::Simulate(snapped, &recorder, engine);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();

  for (const auto& q : snapped.queries()) {
    ASSERT_TRUE(online->Observe(q.arrival_time).ok());
  }
  ASSERT_TRUE(online->Plan(snapped.horizon()).ok());

  // The mirror ran with its default (bounded) retention, so its log is the
  // retained suffix of the full parity log: align it against the tail of
  // the batch recording.
  const auto& batch_actions = recorder.actions();
  const auto& online_actions = online->ActionLog();
  const auto snap = online->Snapshot();
  ASSERT_EQ(batch_actions.size(), snap.planning_rounds);
  ASSERT_EQ(online_actions.size(), snap.actions_retained);
  ASSERT_LE(snap.actions_retained, snap.planning_rounds);
  const std::size_t offset = batch_actions.size() - online_actions.size();
  for (std::size_t i = 0; i < online_actions.size(); ++i) {
    const auto& expected = batch_actions[offset + i];
    const auto& got = online_actions[i];
    ASSERT_EQ(expected.creation_times.size(), got.creation_times.size())
        << "action " << offset + i;
    EXPECT_EQ(expected.deletions, got.deletions) << "action " << offset + i;
    for (std::size_t j = 0; j < expected.creation_times.size(); ++j) {
      EXPECT_NEAR(expected.creation_times[j], got.creation_times[j], 1e-9)
          << "action " << offset + i << ", creation " << j;
    }
  }

  // Both paths consulted their decision clocks equally often (and not at
  // all unless charging was requested).
  EXPECT_EQ(batch_clock.readings(), online_clock.readings());
  if (!param.charge) {
    EXPECT_EQ(batch_clock.readings(), 0u);
  }

  // Strategies with a finite declared lookback must have been compacted on
  // a trace this long (the bounded-serving-state guarantee).
  if (online->strategy()->history_requirement() < 300.0) {
    EXPECT_LT(snap.arrivals_retained, snap.queries_observed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RegistryStrategies, ServingParityTest,
    ::testing::Values(
        ParityCase{11, "robust_hp:target=0.9", false},
        ParityCase{12, "robust_hp:target=0.9", true},
        ParityCase{13, "robust_rt:target=2.0", true},
        ParityCase{14, "robust_cost:target=5.0", false},
        ParityCase{15, "backup_pool:pool_size=2", false},
        ParityCase{16, "adaptive_backup_pool:multiplier=20,update_interval=30,"
                       "estimate_window=60",
                   true},
        ParityCase{17, "adaptive_backup_pool:multiplier=40,update_interval=10,"
                       "estimate_window=90",
                   false}));

// ---------------------------------------------------------------------------
// Fleet-vs-sequential parity: for random per-tenant workloads and a random
// interleaving of Observe / PlanAll operations, a ScalerFleet with any
// worker-thread count must reproduce — byte-identical — the per-tenant
// action sequences of N independent Scalers driven sequentially. Decision
// wall-time charging runs through a FakeDecisionClockBank (one scripted
// clock per tenant) so the charged latencies are deterministic on both
// sides. This is the contract every later scaling layer (sharding,
// snapshot/restore) builds on; the TSan CI job race-checks the same drive.
// ---------------------------------------------------------------------------

struct FleetParityCase {
  std::uint64_t seed;
  std::size_t threads;  ///< Fleet worker-pool size (0 = inline).
  bool charge;          ///< Charge decision wall time (fake clock bank).
};

void PrintTo(const FleetParityCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " threads=" << c.threads
      << (c.charge ? " charged" : "");
}

class FleetParityTest : public ::testing::TestWithParam<FleetParityCase> {};

TEST_P(FleetParityTest, FleetMatchesSequentialScalersActionForAction) {
  const auto param = GetParam();
  constexpr double kTick = 2.0;
  constexpr double kClockStep = 0.125;
  const std::vector<const char*> specs = {
      "robust_hp:target=0.9",
      "robust_rt:target=2.0",
      "backup_pool:pool_size=2",
      "adaptive_backup_pool:multiplier=20,update_interval=30,"
      "estimate_window=60",
  };
  const std::size_t n_tenants = specs.size();

  // Phase-shifted random sinusoidal workload per tenant, shared horizon.
  const double period_s = 600.0, dt = 30.0, horizon = 8.0 * period_s;
  stats::Rng rng(param.seed);
  std::vector<workload::Trace> trains, tests;
  for (std::size_t i = 0; i < n_tenants; ++i) {
    const double phase0 = rng.NextDouble();
    std::vector<double> rates;
    for (double t = 0.5 * dt; t < horizon; t += dt) {
      const double phase = std::fmod(t, period_s) / period_s;
      rates.push_back(0.3 + 0.2 * std::sin(2.0 * M_PI * (phase + phase0)));
    }
    auto intensity = *workload::PiecewiseConstantIntensity::Make(rates, dt);
    auto trace = *workload::MakeTraceFromIntensity(
        &rng, intensity, stats::DurationDistribution::Exponential(15.0));
    auto [train, test] = trace.SplitAt(horizon - 2.0 * period_s);
    trains.push_back(std::move(train));
    tests.push_back(std::move(test));
  }
  const double serve_horizon = tests[0].horizon();

  const auto build = [&](std::size_t i) {
    auto spec = api::ParseStrategySpec(specs[i]);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    auto scaler = api::ScalerBuilder()
                      .WithTrace(trains[i])
                      .WithBinWidth(dt)
                      .WithForecastHorizon(serve_horizon)
                      .WithStrategy(*spec)
                      .WithPlanningInterval(kTick)
                      .WithMcSamples(40)
                      .Build();
    EXPECT_TRUE(scaler.ok()) << scaler.status().ToString();
    return std::move(scaler).ValueOrDie();
  };
  const auto configure = [&](api::Scaler* scaler, sim::DecisionClock* clock) {
    if (param.charge) {
      sim::EngineOptions options;
      options.charge_decision_wall_time = true;
      options.decision_clock = clock;
      ASSERT_TRUE(scaler->ConfigureServing(options).ok());
    }
    ASSERT_TRUE(
        scaler->ConfigureHistoryRetention(sim::kUnboundedHistory).ok());
  };

  // One global operation schedule, shared by the fleet drive and the
  // sequential reference: merged arrivals plus PlanAll points at non-grid
  // times (97 s spacing avoids colliding with the 2 s tick grid) and a
  // final PlanAll at the horizon.
  struct Op {
    double t = 0.0;
    std::size_t tenant = 0;  ///< Only for arrivals.
    bool plan_all = false;
  };
  std::vector<Op> ops;
  for (std::size_t i = 0; i < n_tenants; ++i) {
    for (const auto& q : tests[i].queries()) {
      ops.push_back({q.arrival_time, i, false});
    }
  }
  for (double t = 97.0; t < serve_horizon; t += 97.0) {
    ops.push_back({t, 0, true});
  }
  std::sort(ops.begin(), ops.end(),
            [](const Op& a, const Op& b) { return a.t < b.t; });
  ops.push_back({serve_horizon, 0, true});

  // -- Fleet drive ----------------------------------------------------------
  api::ScalerFleet fleet(param.threads);
  sim::FakeDecisionClockBank bank(kClockStep, n_tenants);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n_tenants; ++i) {
    names.push_back("tenant-" + std::to_string(i));
    ASSERT_TRUE(fleet.Register(names[i], build(i)).ok());
    configure(fleet.Find(names[i]), bank.clock(i));
  }
  std::vector<std::vector<bool>> fleet_outcomes(n_tenants);
  std::vector<std::vector<sim::ScalingAction>> fleet_drained(n_tenants);
  for (const auto& op : ops) {
    if (op.plan_all) {
      auto plans = fleet.PlanAll(op.t);
      ASSERT_EQ(plans.size(), n_tenants);
      for (std::size_t i = 0; i < n_tenants; ++i) {
        ASSERT_EQ(plans[i].tenant, names[i]);  // Deterministic ordering.
        ASSERT_TRUE(plans[i].status.ok()) << plans[i].status.ToString();
        fleet_drained[i].push_back(std::move(plans[i].action));
      }
    } else {
      auto outcome = fleet.Observe(names[op.tenant], op.t);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      fleet_outcomes[op.tenant].push_back(outcome->cold_start);
    }
  }

  // -- Sequential reference: one independent Scaler per tenant -------------
  for (std::size_t i = 0; i < n_tenants; ++i) {
    api::Scaler reference = build(i);
    sim::FakeDecisionClock reference_clock(kClockStep);
    configure(&reference, &reference_clock);
    std::vector<bool> outcomes;
    std::vector<sim::ScalingAction> drained;
    for (const auto& op : ops) {
      if (op.plan_all) {
        auto planned = reference.Plan(op.t);
        ASSERT_TRUE(planned.ok()) << planned.status().ToString();
        drained.push_back(std::move(planned).ValueOrDie());
      } else if (op.tenant == i) {
        auto outcome = reference.Observe(op.t);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        outcomes.push_back(outcome->cold_start);
      }
    }

    const api::Scaler* served = fleet.Find(names[i]);
    ASSERT_NE(served, nullptr);
    EXPECT_EQ(fleet_outcomes[i], outcomes) << names[i];
    const auto compare = [&](const std::vector<sim::ScalingAction>& expected,
                             const std::vector<sim::ScalingAction>& got,
                             const char* what) {
      ASSERT_EQ(expected.size(), got.size()) << names[i] << " " << what;
      for (std::size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(expected[k].deletions, got[k].deletions)
            << names[i] << " " << what << " " << k;
        ASSERT_EQ(expected[k].creation_times.size(),
                  got[k].creation_times.size())
            << names[i] << " " << what << " " << k;
        for (std::size_t j = 0; j < expected[k].creation_times.size(); ++j) {
          // Byte-identical parity: exact double equality, no tolerance.
          EXPECT_EQ(expected[k].creation_times[j], got[k].creation_times[j])
              << names[i] << " " << what << " " << k << "/" << j;
        }
      }
    };
    compare(reference.ActionLog(), served->ActionLog(), "log");
    compare(drained, fleet_drained[i], "drained");

    const auto ref_snap = reference.Snapshot();
    const auto fleet_snap = served->Snapshot();
    EXPECT_EQ(ref_snap.now, fleet_snap.now) << names[i];
    EXPECT_EQ(ref_snap.queries_observed, fleet_snap.queries_observed);
    EXPECT_EQ(ref_snap.planning_rounds, fleet_snap.planning_rounds);
    EXPECT_EQ(ref_snap.creations_requested, fleet_snap.creations_requested);
    EXPECT_EQ(ref_snap.deletions_requested, fleet_snap.deletions_requested);
    EXPECT_EQ(ref_snap.cold_starts, fleet_snap.cold_starts);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkerCounts, FleetParityTest,
    ::testing::Values(FleetParityCase{41, 1, false},
                      FleetParityCase{42, 2, true},
                      FleetParityCase{43, 8, false},
                      FleetParityCase{44, 8, true}));

// ---------------------------------------------------------------------------
// NHPP sampler: counts in disjoint windows behave like Poisson counts.
// ---------------------------------------------------------------------------

class NhppWindowTest : public ::testing::TestWithParam<double> {};

TEST_P(NhppWindowTest, WindowCountsHavePoissonMoments) {
  const double rate = GetParam();
  stats::Rng rng(static_cast<std::uint64_t>(rate * 1000));
  const double window = 100.0;
  const std::size_t windows = 400;
  auto intensity = *workload::PiecewiseConstantIntensity::Make(
      std::vector<double>(windows, rate), window);
  auto arrivals = workload::SampleNhppTimeRescaling(&rng, intensity);
  ASSERT_TRUE(arrivals.ok());

  std::vector<double> counts(windows, 0.0);
  for (double t : *arrivals) {
    counts[static_cast<std::size_t>(t / window)] += 1.0;
  }
  const double mean = stats::Mean(counts);
  const double var = stats::Variance(counts);
  const double expected = rate * window;
  EXPECT_NEAR(mean, expected, 4.0 * std::sqrt(expected / windows) + 0.05);
  // Fano factor (var/mean) ≈ 1 for Poisson.
  EXPECT_NEAR(var / mean, 1.0, 0.25);
}

INSTANTIATE_TEST_SUITE_P(Rates, NhppWindowTest,
                         ::testing::Values(0.05, 0.2, 1.0, 5.0));

// ---------------------------------------------------------------------------
// Decision rules satisfy their constraints on *fresh* samples (not the ones
// they were optimized on).
// ---------------------------------------------------------------------------

class HpConstraintTest : public ::testing::TestWithParam<double> {};

TEST_P(HpConstraintTest, FreshSampleHitProbabilityMatchesAlpha) {
  const double alpha = GetParam();
  // Feasible regime for every alpha tested: -ln(0.95)/0.003 ≈ 17.1 > τ.
  const double rate = 0.003, tau = 13.0;
  stats::Rng rng(77);
  auto draw = [&](std::size_t n) {
    core::McSamples s;
    s.xi.resize(n);
    s.tau.assign(n, tau);
    for (auto& v : s.xi) v = stats::SampleExponential(&rng, rate);
    return s;
  };
  auto d = core::SolveHpConstrained(draw(100000), alpha);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(d->feasible);
  // Empirical P(xi > x* + tau) on fresh samples ≈ 1 - alpha.
  auto fresh = draw(100000);
  std::size_t hits = 0;
  for (double xi : fresh.xi) {
    if (xi > d->creation_time + tau) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 1.0 - alpha, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Alphas, HpConstraintTest,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5));

TEST(RtConstraintTest, FreshSampleWaitMatchesTarget) {
  const double rate = 0.01;
  stats::Rng rng(78);
  auto draw = [&](std::size_t n) {
    core::McSamples s;
    s.xi.resize(n);
    s.tau.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      s.xi[i] = stats::SampleExponential(&rng, rate);
      s.tau[i] = stats::SampleUniform(&rng, 8.0, 18.0);
    }
    return s;
  };
  for (double target : {1.0, 3.0, 6.0}) {
    auto d = core::SolveRtConstrained(draw(60000), target);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d->feasible);
    ASSERT_FALSE(d->unbounded);
    EXPECT_NEAR(core::EstimateExpectedWait(draw(60000), d->creation_time),
                target, 0.15 * target + 0.05);
  }
}

TEST(CostConstraintTest, FreshSampleIdleMatchesBudget) {
  const double rate = 0.01, tau = 13.0;
  stats::Rng rng(79);
  auto draw = [&](std::size_t n) {
    core::McSamples s;
    s.xi.resize(n);
    s.tau.assign(n, tau);
    for (auto& v : s.xi) v = stats::SampleExponential(&rng, rate);
    return s;
  };
  for (double budget : {2.0, 10.0, 40.0}) {
    auto d = core::SolveCostConstrained(draw(60000), budget);
    ASSERT_TRUE(d.ok());
    const double fresh_idle =
        core::EstimateExpectedIdle(draw(60000), d->creation_time);
    // x*=0 branch only requires idle <= budget; the root branch hits it.
    if (d->creation_time == 0.0) {
      EXPECT_LE(fresh_idle, budget * 1.15 + 0.1);
    } else {
      EXPECT_NEAR(fresh_idle, budget, 0.15 * budget + 0.05);
    }
  }
}

// ---------------------------------------------------------------------------
// Adversarial training inputs: periodicity → ADMM → forecast → κ on count
// series a production window can hold. Each must end in a clean error
// Status or in a finite, non-negative forecast and an in-bounds κ — never
// a crash, a NaN, or an unbounded loop.
// ---------------------------------------------------------------------------

struct AdversarialCase {
  const char* name;
  std::vector<double> counts;
};

void PrintTo(const AdversarialCase& c, std::ostream* os) { *os << c.name; }

std::vector<double> SineCounts(std::size_t bins, double level) {
  std::vector<double> counts(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    counts[i] = std::round(
        level * (1.0 + 0.5 * std::sin(2.0 * M_PI *
                                      static_cast<double>(i % 20) / 20.0)));
  }
  return counts;
}

std::vector<AdversarialCase> AdversarialCases() {
  std::vector<double> spike(240, 0.0);
  spike[117] = 5000.0;
  std::vector<double> near_overflow = SineCounts(240, 1.0);
  for (double& q : near_overflow) {
    q *= 0.25 * std::numeric_limits<double>::max();
  }
  return {
      {"all_zero", std::vector<double>(240, 0.0)},
      {"constant", std::vector<double>(240, 7.0)},
      {"single_spike", spike},
      {"huge_counts", SineCounts(240, 1e9)},
      {"shorter_than_one_period", SineCounts(12, 5.0)},
      {"minimum_length", {0.0, 3.0, 1.0}},
      {"too_short", {4.0, 2.0}},
      {"near_overflow", near_overflow},
  };
}

class AdversarialTrainingTest
    : public ::testing::TestWithParam<AdversarialCase> {};

TEST_P(AdversarialTrainingTest, CleanStatusOrFiniteInBoundsPlan) {
  const AdversarialCase& c = GetParam();
  ts::CountSeries counts;
  counts.dt = 30.0;
  counts.counts = c.counts;
  core::PipelineOptions options;
  options.forecast_horizon = 1800.0;
  auto trained = core::TrainRobustScalerFromCounts(counts, options);
  if (!trained.ok()) {
    EXPECT_FALSE(trained.status().message().empty());
    return;
  }
  const core::AdmmInfo& info = trained->admm_info;
  EXPECT_LE(info.iterations, options.admm.max_iterations);
  EXPECT_TRUE(std::isfinite(info.rho) && info.rho > 0.0) << info.rho;
  for (double r : trained->model.log_intensity()) {
    ASSERT_TRUE(std::isfinite(r));
    ASSERT_LE(std::fabs(r), options.admm.r_clamp);
  }
  const auto& rates = trained->forecast.rates();
  ASSERT_FALSE(rates.empty());
  double lambda_bar = 0.0;
  for (double rate : rates) {
    ASSERT_TRUE(std::isfinite(rate) && rate >= 0.0) << rate;
    lambda_bar = std::max(lambda_bar, rate);
  }

  // κ at the forecast's peak rate: exact (binary search) and Monte Carlo.
  constexpr std::size_t kMaxKappa = 100000;
  const auto check_kappa = [&](const Result<std::size_t>& kappa) {
    if (kappa.ok()) {
      EXPECT_LE(*kappa, kMaxKappa);
    } else {
      EXPECT_FALSE(kappa.status().message().empty());
    }
  };
  check_kappa(core::ComputeKappaBinarySearch(0.1, lambda_bar, 13.0, kMaxKappa));
  stats::Rng rng(5);
  check_kappa(core::ComputeKappaMonteCarlo(
      &rng, 0.1, lambda_bar, stats::DurationDistribution::Deterministic(13.0),
      /*num_samples=*/200, kMaxKappa));
}

INSTANTIATE_TEST_SUITE_P(
    Traces, AdversarialTrainingTest, ::testing::ValuesIn(AdversarialCases()),
    [](const ::testing::TestParamInfo<AdversarialCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Periodicity: a spike-train signal (narrow periodic bursts, the
// Google/Alibaba shape) must survive the robust pipeline via the
// no-Hampel fallback.
// ---------------------------------------------------------------------------

TEST(SpikeTrainPeriodicityTest, DetectsNarrowPeriodicSpikes) {
  stats::Rng rng(80);
  const std::size_t period = 60, cycles = 12;
  ts::CountSeries series;
  series.dt = 1.0;
  series.counts.resize(period * cycles);
  for (std::size_t i = 0; i < series.counts.size(); ++i) {
    const bool spike = (i % period) < 3;  // 3-bin spike per 60-bin cycle.
    const double level = spike ? 30.0 : 2.0;
    series.counts[i] =
        static_cast<double>(stats::SamplePoisson(&rng, level));
  }
  auto detected = ts::DetectPeriod(series);
  ASSERT_TRUE(detected.ok());
  ASSERT_GT(detected->period, 0u);
  EXPECT_NEAR(static_cast<double>(detected->period),
              static_cast<double>(period), 3.0);
}

TEST(SpikeTrainPeriodicityTest, IsolatedSpikesAreNotAPeriod) {
  // A handful of *randomly placed* spikes must not produce a period.
  stats::Rng rng(81);
  ts::CountSeries series;
  series.dt = 1.0;
  series.counts.resize(600);
  for (auto& v : series.counts) {
    v = static_cast<double>(stats::SamplePoisson(&rng, 3.0));
  }
  for (int k = 0; k < 5; ++k) {
    series.counts[rng.NextBounded(600)] += 200.0;
  }
  auto detected = ts::DetectPeriod(series);
  ASSERT_TRUE(detected.ok());
  EXPECT_EQ(detected->period, 0u);
}

// ---------------------------------------------------------------------------
// Synthetic-trace statistics: arrival counts track the ground-truth
// intensity integral (the generator really is an NHPP of its intensity).
// ---------------------------------------------------------------------------

TEST(SyntheticConsistencyTest, QueryCountMatchesIntensityIntegral) {
  auto synth = workload::MakeGoogleLikeTrace();
  ASSERT_TRUE(synth.ok());
  const auto& intensity = synth->intensity;
  const double expected = intensity.Cumulative(intensity.horizon());
  const auto n = static_cast<double>(synth->trace.size());
  EXPECT_NEAR(n, expected, 5.0 * std::sqrt(expected));
}

}  // namespace
}  // namespace rs

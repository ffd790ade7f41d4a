// Tests of rs::fault (deterministic fault injection) and the graceful
// degradation it drives through the fleet: the FaultPlan/storm machinery
// itself, ThreadPool/ParallelFor surviving throwing tasks, Observe input
// hardening, every health transition of the circuit breaker
// (healthy → degraded → quarantined → probed back to healthy), last-good
// fallback at failed plan boundaries, retrain failure backoff, crash-safe
// atomic snapshot writes under injected I/O faults, health persistence, and
// the headline chaos guarantee: a seeded storm over a fleet replays
// byte-identically across worker counts {0, 1, 8}. The sanitizer and TSan
// CI jobs run this whole suite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "rs/api/api.hpp"
#include "rs/common/thread_pool.hpp"
#include "rs/fault/fault.hpp"
#include "rs/persist/atomic_file.hpp"
#include "rs/stats/rng.hpp"

namespace rs {
namespace {

using api::RobustnessPolicy;
using api::ScalerFleet;
using api::TenantHealth;
using api::TenantHealthInfo;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Shared fixture: a small sinusoidal workload so every Scaler build in this
// file trains in milliseconds.
// ---------------------------------------------------------------------------

constexpr double kPeriodS = 600.0;
constexpr double kDt = 30.0;

workload::Trace MakeTrace(std::uint64_t seed, double horizon, double qps) {
  std::vector<double> rates;
  for (double t = 0.5 * kDt; t < horizon; t += kDt) {
    const double phase = std::fmod(t, kPeriodS) / kPeriodS;
    rates.push_back(qps * (1.0 + 0.4 * std::sin(2.0 * M_PI * phase)));
  }
  auto intensity = *workload::PiecewiseConstantIntensity::Make(rates, kDt);
  stats::Rng rng(seed);
  return *workload::MakeTraceFromIntensity(
      &rng, intensity, stats::DurationDistribution::Exponential(15.0));
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
                    .WithPlanningInterval(2.0)
                    .WithMcSamples(40)
                    .Build();
  EXPECT_TRUE(scaler.ok()) << scaler.status().ToString();
  return std::move(scaler).ValueOrDie();
}

fault::FaultRule PlanFailureRule(const std::string& scope, std::uint64_t hit,
                                 std::uint64_t period = 0) {
  fault::FaultRule rule;
  rule.site = "fleet.plan";
  rule.scope = scope;
  rule.hit = hit;
  rule.period = period;
  rule.fault.code = StatusCode::kIoError;
  return rule;
}

// ---------------------------------------------------------------------------
// rs::fault — the injection machinery itself.
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, DisarmedSitesAreOkAndFree) {
  EXPECT_FALSE(fault::InjectionActive());
  EXPECT_TRUE(fault::Hit("fleet.plan", "anything").ok());
  EXPECT_TRUE(fault::Hit("persist.write").ok());
}

TEST(FaultPlanTest, SiteCatalogueCoversTheInstrumentedSurface) {
  // Keep in sync with docs/ARCHITECTURE.md and the RS_FAULT_POINT /
  // fault::Hit call sites; the chaos storm rolls over exactly these.
  std::vector<std::string> names;
  for (const auto& site : fault::RegisteredSites()) names.push_back(site.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "fleet.observe", "fleet.plan", "train.refit",
                       "persist.write", "persist.rename", "wal.append",
                       "wal.fsync", "wal.rotate"}));
}

TEST(FaultPlanTest, RuleFiresAtExactHitAndThenEveryPeriod) {
  fault::FaultPlan plan;
  plan.rules.push_back(PlanFailureRule("svc", /*hit=*/2, /*period=*/3));
  fault::ScopedFaultInjection inject(std::move(plan));
  EXPECT_TRUE(fault::InjectionActive());
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(!fault::Hit("fleet.plan", "svc").ok());
  }
  // Hits 2, 5, 8 (= 2 + k*3) fire; everything else passes.
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, false, true, false,
                                      false, true, false}));
  EXPECT_EQ(inject.total_fired(), 3u);
  const auto stats = inject.Stats();
  EXPECT_EQ(stats.at("fleet.plan").hits, 9u);
  EXPECT_EQ(stats.at("fleet.plan").fired, 3u);
}

TEST(FaultPlanTest, EmptyScopeMatchesEveryScopeIndependently) {
  fault::FaultPlan plan;
  plan.rules.push_back(PlanFailureRule(/*scope=*/"", /*hit=*/2));
  fault::ScopedFaultInjection inject(std::move(plan));
  // Each scope keeps its own counter: both fire at *their* second hit,
  // regardless of interleaving — this is what makes storms worker-count
  // independent.
  EXPECT_TRUE(fault::Hit("fleet.plan", "a").ok());
  EXPECT_TRUE(fault::Hit("fleet.plan", "b").ok());
  EXPECT_FALSE(fault::Hit("fleet.plan", "a").ok());
  EXPECT_FALSE(fault::Hit("fleet.plan", "b").ok());
  EXPECT_TRUE(fault::Hit("fleet.plan", "a").ok());
}

TEST(FaultPlanTest, ScopedRuleIgnoresOtherScopes) {
  fault::FaultPlan plan;
  plan.rules.push_back(PlanFailureRule("svc-a", /*hit=*/1));
  fault::ScopedFaultInjection inject(std::move(plan));
  EXPECT_TRUE(fault::Hit("fleet.plan", "svc-b").ok());
  EXPECT_FALSE(fault::Hit("fleet.plan", "svc-a").ok());
}

TEST(FaultPlanTest, StatusFaultCarriesCodeAndDescriptiveMessage) {
  fault::FaultPlan plan;
  plan.rules.push_back(PlanFailureRule("svc", 1));
  fault::ScopedFaultInjection inject(std::move(plan));
  const Status st = fault::Hit("fleet.plan", "svc");
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("fleet.plan"), std::string::npos);
  EXPECT_NE(st.message().find("svc"), std::string::npos);
}

TEST(FaultPlanTest, ThrowFaultThrowsInjectedFault) {
  fault::FaultPlan plan;
  fault::FaultRule rule = PlanFailureRule("svc", 1);
  rule.fault.kind = fault::FaultKind::kThrow;
  plan.rules.push_back(std::move(rule));
  fault::ScopedFaultInjection inject(std::move(plan));
  EXPECT_THROW((void)fault::Hit("fleet.plan", "svc"), fault::InjectedFault);
}

TEST(FaultPlanTest, StormPlanIsSeedDeterministic) {
  const auto a = fault::MakeStormPlan(7);
  const auto b = fault::MakeStormPlan(7);
  const auto c = fault::MakeStormPlan(8);
  ASSERT_EQ(a.rules.size(), b.rules.size());
  EXPECT_FALSE(a.rules.empty()) << "default storm options must schedule "
                                   "faults over the catalogue";
  for (std::size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(a.rules[i].site, b.rules[i].site);
    EXPECT_EQ(a.rules[i].hit, b.rules[i].hit);
    EXPECT_EQ(static_cast<int>(a.rules[i].fault.kind),
              static_cast<int>(b.rules[i].fault.kind));
    EXPECT_EQ(static_cast<int>(a.rules[i].fault.code),
              static_cast<int>(b.rules[i].fault.code));
  }
  // Different seeds give different schedules (rule-count collision is
  // possible, identical schedules are not, for these sizes).
  bool differs = a.rules.size() != c.rules.size();
  for (std::size_t i = 0; !differs && i < a.rules.size(); ++i) {
    differs = a.rules[i].site != c.rules[i].site ||
              a.rules[i].hit != c.rules[i].hit;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, ThrowsOnlyAtMayThrowSites) {
  const auto plan =
      fault::MakeStormPlan(123, {/*fire_probability=*/0.5,
                                 /*horizon_hits=*/64,
                                 /*include_throws=*/true});
  for (const auto& rule : plan.rules) {
    if (rule.fault.kind != fault::FaultKind::kThrow) continue;
    bool may_throw = false;
    for (const auto& site : fault::RegisteredSites()) {
      if (rule.site == site.name) may_throw = site.may_throw;
    }
    EXPECT_TRUE(may_throw) << rule.site << " must not schedule throws";
  }
}

// ---------------------------------------------------------------------------
// ThreadPool / ParallelFor — pool tasks that throw must not kill workers,
// deadlock joins, or lose indices (satellite: the pre-existing bug was a
// std::terminate in WorkerLoop and a lost CountDown in ParallelFor).
// ---------------------------------------------------------------------------

TEST(ThreadPoolFaultTest, ThrowingSubmittedTaskDoesNotKillWorkers) {
  common::ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&ran, i] {
      if (i % 2 == 0) throw std::runtime_error("injected task failure");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // Queue more work after the throwers: the workers must still be alive.
  common::Latch latch(4);
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] {
      ran.fetch_add(1, std::memory_order_relaxed);
      latch.CountDown();
    });
  }
  latch.Wait();
  // The latch opens when the last four tasks finish, but the other worker
  // may still be in an earlier task: a thrower is counted in tasks_failed()
  // only after it unwinds, and an odd task may not have bumped `ran` yet.
  // Wait, bounded, for both totals.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((ran.load() < 8 || pool.tasks_failed() < 4) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(pool.tasks_failed(), 4u);
}

TEST(ThreadPoolFaultTest, ParallelForThrowRunsAllIndicesAndRethrows) {
  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{8}}) {
    common::ThreadPool pool(workers);
    std::atomic<std::size_t> ran{0};
    bool threw = false;
    try {
      common::ParallelFor(&pool, 64, [&ran](std::size_t i) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i == 13) throw std::runtime_error("injected index failure");
      });
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "injected index failure");
    }
    EXPECT_TRUE(threw) << workers << " workers";
    // The contract under any worker count: every index ran, then the first
    // exception was rethrown on the calling thread (no deadlock, no loss).
    EXPECT_EQ(ran.load(), 64u) << workers << " workers";
  }
}

// ---------------------------------------------------------------------------
// Observe input hardening — malformed arrivals are rejected before the
// serving mirror is touched, counted, and never poison later planning.
// ---------------------------------------------------------------------------

TEST(FleetDegradationTest, MalformedObservationsAreRejectedAndCounted) {
  const auto train = MakeTrace(31, 4.0 * kPeriodS, 0.5);
  ScalerFleet fleet(0);
  ASSERT_TRUE(
      fleet.Register("svc", BuildScaler(train, kPeriodS, "backup_pool")).ok());

  ASSERT_TRUE(fleet.Observe("svc", 1.0).ok());
  const std::size_t queries_before =
      fleet.Snapshot().per_tenant[0].second.queries_observed;

  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(fleet.Observe("svc", nan).ok());
  EXPECT_FALSE(fleet.Observe("svc", kInf).ok());
  EXPECT_FALSE(fleet.Observe("svc", -kInf).ok());
  EXPECT_FALSE(fleet.Observe("svc", 0.5).ok()) << "regressive time";

  auto health = fleet.Health("svc");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->rejected_observations, 4u);
  EXPECT_EQ(health->health, TenantHealth::kHealthy)
      << "caller bugs degrade nothing";
  EXPECT_FALSE(health->last_error.ok());

  // The mirror was never touched: serving continues exactly where it was.
  EXPECT_EQ(fleet.Snapshot().per_tenant[0].second.queries_observed,
            queries_before);
  EXPECT_TRUE(fleet.Observe("svc", 2.0).ok());
  auto plan = fleet.Plan("svc", 3.0);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  // NaN planning clocks are rejected the same way (propagated, not served
  // by fallback — see the Invalid contract below).
  EXPECT_FALSE(fleet.Plan("svc", nan).ok());
  EXPECT_TRUE(fleet.Plan("svc", 4.0).ok());
}

TEST(FleetDegradationTest, InjectedObserveFaultRejectsWithoutPoisoning) {
  const auto train = MakeTrace(32, 4.0 * kPeriodS, 0.5);
  ScalerFleet fleet(0);
  ASSERT_TRUE(
      fleet.Register("svc", BuildScaler(train, kPeriodS, "backup_pool")).ok());
  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.site = "fleet.observe";
  rule.scope = "svc";
  rule.hit = 2;
  plan.rules.push_back(std::move(rule));
  fault::ScopedFaultInjection inject(std::move(plan));

  ASSERT_TRUE(fleet.Observe("svc", 1.0).ok());
  EXPECT_FALSE(fleet.Observe("svc", 2.0).ok()) << "hit 2 injected";
  EXPECT_TRUE(fleet.Observe("svc", 3.0).ok());
  auto health = fleet.Health("svc");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->rejected_observations, 1u);
  EXPECT_EQ(fleet.Snapshot().queries_observed, 2u);
}

// ---------------------------------------------------------------------------
// The breaker state machine, transition by transition (deterministic: jitter
// zeroed, explicit FaultPlan, inline pool).
// ---------------------------------------------------------------------------

RobustnessPolicy TightBreaker() {
  RobustnessPolicy policy;
  policy.breaker_threshold = 2;
  policy.backoff_base = 10.0;
  policy.backoff_max = 40.0;
  policy.backoff_jitter = 0.0;  // Exact retry_at arithmetic in these tests.
  return policy;
}

TEST(FleetDegradationTest, FailedBoundaryServesFallbackAndDegrades) {
  const auto train = MakeTrace(33, 4.0 * kPeriodS, 0.5);
  ScalerFleet fleet(0);
  fleet.ConfigureRobustness(TightBreaker());
  ASSERT_TRUE(
      fleet.Register("svc", BuildScaler(train, kPeriodS, "backup_pool")).ok());
  fault::FaultPlan plan;
  plan.rules.push_back(PlanFailureRule("svc", /*hit=*/2));
  fault::ScopedFaultInjection inject(std::move(plan));

  ASSERT_TRUE(fleet.Observe("svc", 1.0).ok());
  auto first = fleet.Plan("svc", 2.0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Hit 2 fails: the boundary is still served (OK, empty action = hold the
  // last-good plan), the tenant degrades.
  auto fallback = fleet.Plan("svc", 4.0);
  ASSERT_TRUE(fallback.ok()) << "fallback must serve, not error";
  EXPECT_TRUE(fallback->creation_times.empty());
  EXPECT_EQ(fallback->deletions, 0u);
  auto health = fleet.Health("svc");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->health, TenantHealth::kDegraded);
  EXPECT_EQ(health->plan_failures, 1u);
  EXPECT_EQ(health->consecutive_plan_failures, 1u);
  EXPECT_EQ(health->fallbacks_served, 1u);
  EXPECT_EQ(health->breaker_opens, 0u);
  EXPECT_EQ(health->last_error.code(), StatusCode::kIoError);

  // Success clears the streak and the tenant recovers to healthy.
  ASSERT_TRUE(fleet.Plan("svc", 6.0).ok());
  health = fleet.Health("svc");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->health, TenantHealth::kHealthy);
  EXPECT_EQ(health->consecutive_plan_failures, 0u);
}

TEST(FleetDegradationTest, BreakerTripsQuarantinesAndProbesBack) {
  const auto train = MakeTrace(34, 4.0 * kPeriodS, 0.5);
  ScalerFleet fleet(0);
  fleet.ConfigureRobustness(TightBreaker());
  ASSERT_TRUE(
      fleet.Register("svc", BuildScaler(train, kPeriodS, "backup_pool")).ok());
  fault::FaultPlan plan;
  plan.rules.push_back(PlanFailureRule("svc", /*hit=*/1));
  plan.rules.push_back(PlanFailureRule("svc", /*hit=*/2));
  fault::ScopedFaultInjection inject(std::move(plan));

  // Two consecutive failures → breaker trips at threshold 2.
  ASSERT_TRUE(fleet.Plan("svc", 2.0).ok());
  ASSERT_TRUE(fleet.Plan("svc", 4.0).ok());
  auto health = fleet.Health("svc");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->health, TenantHealth::kQuarantined);
  EXPECT_EQ(health->breaker_opens, 1u);
  EXPECT_EQ(health->fallbacks_served, 2u);
  EXPECT_EQ(health->retry_at, 4.0 + 10.0) << "backoff_base, zero jitter";

  // Quarantined boundaries serve fallback without touching the scaler: the
  // fault site records no hits and the mirror clock holds.
  const double mirror_before = fleet.Snapshot().per_tenant[0].second.now;
  auto gated = fleet.Plan("svc", 8.0);
  ASSERT_TRUE(gated.ok());
  EXPECT_TRUE(gated->creation_times.empty());
  EXPECT_EQ(fleet.Snapshot().per_tenant[0].second.now, mirror_before);
  EXPECT_EQ(inject.Stats().at("fleet.plan").hits, 2u)
      << "gated boundary must not execute the plan site";
  health = fleet.Health("svc");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->fallbacks_served, 3u);
  EXPECT_EQ(health->probes, 0u);

  // Backoff expired → half-open probe; hit 3 has no rule → success →
  // full recovery, and the mirror deterministically catches up.
  auto probed = fleet.Plan("svc", 15.0);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  health = fleet.Health("svc");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->health, TenantHealth::kHealthy);
  EXPECT_EQ(health->probes, 1u);
  EXPECT_EQ(health->retry_at, -kInf);
  EXPECT_EQ(fleet.Snapshot().per_tenant[0].second.now, 15.0);
}

TEST(FleetDegradationTest, FailedProbeReopensWithExponentialBackoff) {
  const auto train = MakeTrace(35, 4.0 * kPeriodS, 0.5);
  ScalerFleet fleet(0);
  fleet.ConfigureRobustness(TightBreaker());
  ASSERT_TRUE(
      fleet.Register("svc", BuildScaler(train, kPeriodS, "backup_pool")).ok());
  fault::FaultPlan plan;
  // Hits 1..4 all fail: trip at 2, fail the probe (hit 3), fail the second
  // probe (hit 4).
  plan.rules.push_back(PlanFailureRule("svc", /*hit=*/1, /*period=*/1));
  fault::ScopedFaultInjection inject(std::move(plan));

  ASSERT_TRUE(fleet.Plan("svc", 2.0).ok());
  ASSERT_TRUE(fleet.Plan("svc", 4.0).ok());  // Trip: retry_at = 14.
  auto probe1 = fleet.Plan("svc", 14.0);     // Probe fails → re-open.
  ASSERT_TRUE(probe1.ok()) << "failed probe still serves fallback";
  auto health = fleet.Health("svc");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->health, TenantHealth::kQuarantined);
  EXPECT_EQ(health->breaker_opens, 2u);
  EXPECT_EQ(health->probes, 1u);
  EXPECT_EQ(health->retry_at, 14.0 + 20.0) << "second open doubles backoff";

  ASSERT_TRUE(fleet.Plan("svc", 34.0).ok());  // Second probe fails too.
  health = fleet.Health("svc");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->breaker_opens, 3u);
  EXPECT_EQ(health->retry_at, 34.0 + 40.0) << "capped at backoff_max";
}

TEST(FleetDegradationTest, ThrownPlanBoundaryIsCaughtAndServedByFallback) {
  const auto train = MakeTrace(36, 4.0 * kPeriodS, 0.5);
  ScalerFleet fleet(0);
  ASSERT_TRUE(
      fleet.Register("svc", BuildScaler(train, kPeriodS, "backup_pool")).ok());
  fault::FaultPlan plan;
  fault::FaultRule rule = PlanFailureRule("svc", 1);
  rule.fault.kind = fault::FaultKind::kThrow;
  plan.rules.push_back(std::move(rule));
  fault::ScopedFaultInjection inject(std::move(plan));

  auto served = fleet.Plan("svc", 2.0);
  ASSERT_TRUE(served.ok()) << "a throwing boundary must not crash or error";
  EXPECT_TRUE(served->creation_times.empty());
  auto health = fleet.Health("svc");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->health, TenantHealth::kDegraded);
  EXPECT_EQ(health->last_error.code(), StatusCode::kRuntimeError);
  EXPECT_NE(health->last_error.message().find("injected fault"),
            std::string::npos);
}

TEST(FleetDegradationTest, InvalidArgumentPropagatesAndFeedsNoBreaker) {
  const auto train = MakeTrace(37, 4.0 * kPeriodS, 0.5);
  ScalerFleet fleet(0);
  RobustnessPolicy policy = TightBreaker();
  policy.breaker_threshold = 1;  // Any real failure would trip instantly.
  fleet.ConfigureRobustness(policy);
  ASSERT_TRUE(
      fleet.Register("svc", BuildScaler(train, kPeriodS, "backup_pool")).ok());
  ASSERT_TRUE(fleet.Plan("svc", 10.0).ok());
  // Regressive clock: a caller bug, which must surface as the error it is —
  // no fallback masking, no breaker bookkeeping (this is also the only
  // faults-off failure mode, so faults-off behavior is unchanged).
  auto bad = fleet.Plan("svc", 5.0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  auto health = fleet.Health("svc");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->health, TenantHealth::kHealthy);
  EXPECT_EQ(health->plan_failures, 0u);
  EXPECT_EQ(health->fallbacks_served, 0u);
}

TEST(FleetDegradationTest, PlanDeadlineOverrunServesFallback) {
  const auto train = MakeTrace(38, 4.0 * kPeriodS, 0.5);
  ScalerFleet fleet(0);
  RobustnessPolicy policy;  // Default breaker, but an impossible deadline.
  policy.plan_deadline = 0.0;
  fleet.ConfigureRobustness(policy);
  ASSERT_TRUE(
      fleet.Register("svc", BuildScaler(train, kPeriodS, "backup_pool")).ok());
  auto served = fleet.Plan("svc", 2.0);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->creation_times.empty()) << "late action discarded";
  auto health = fleet.Health("svc");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->deadline_overruns, 1u);
  EXPECT_EQ(health->health, TenantHealth::kDegraded);
}

TEST(FleetDegradationTest, PlanAllIsolatesFailuresToTheFaultedTenant) {
  const auto train = MakeTrace(39, 4.0 * kPeriodS, 0.5);
  ScalerFleet fleet(2);
  ASSERT_TRUE(
      fleet.Register("ok-1", BuildScaler(train, kPeriodS, "backup_pool")).ok());
  ASSERT_TRUE(
      fleet.Register("bad", BuildScaler(train, kPeriodS, "backup_pool")).ok());
  ASSERT_TRUE(
      fleet.Register("ok-2", BuildScaler(train, kPeriodS, "backup_pool")).ok());
  fault::FaultPlan plan;
  plan.rules.push_back(PlanFailureRule("bad", /*hit=*/1, /*period=*/1));
  fault::ScopedFaultInjection inject(std::move(plan));

  for (double t : {2.0, 4.0, 6.0}) {
    auto plans = fleet.PlanAll(t);
    ASSERT_EQ(plans.size(), 3u);
    for (const auto& p : plans) {
      EXPECT_TRUE(p.status.ok()) << p.tenant << ": " << p.status.ToString();
      EXPECT_EQ(p.degraded, p.tenant == "bad") << p.tenant << " at " << t;
    }
  }
  const auto snapshot = fleet.Snapshot();
  EXPECT_EQ(snapshot.tenants_quarantined, 1u) << "3 failures trip default";
  EXPECT_EQ(snapshot.tenants_healthy, 2u);
  EXPECT_EQ(snapshot.plan_failures, 3u);
  EXPECT_EQ(snapshot.fallbacks_served, 3u);
}

// ---------------------------------------------------------------------------
// Retrain faults — a failed background retrain never evicts the last-good
// model, and retries back off when configured.
// ---------------------------------------------------------------------------

TEST(FleetDegradationTest, FailedRetrainKeepsLastGoodModelAndBacksOff) {
  const auto train = MakeTrace(40, 4.0 * kPeriodS, 1.0);
  ScalerFleet fleet(0);
  RobustnessPolicy policy;
  policy.retrain_backoff_base = 100.0;
  policy.retrain_backoff_max = 400.0;
  fleet.ConfigureRobustness(policy);
  api::FreshnessPolicy freshness;
  freshness.pipeline.dt = kDt;
  freshness.pipeline.forecast_horizon = kPeriodS;
  freshness.retrain_workers = 0;  // Inline: deterministic timing.
  ASSERT_TRUE(fleet.EnableFreshness(freshness).ok());
  ASSERT_TRUE(
      fleet.Register("svc", BuildScaler(train, kPeriodS, "backup_pool")).ok());

  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.site = "train.refit";
  rule.scope = "svc";
  rule.hit = 1;
  rule.fault.kind = fault::FaultKind::kThrow;  // Worst case: the task throws.
  plan.rules.push_back(std::move(rule));
  fault::ScopedFaultInjection inject(std::move(plan));

  // Feed enough arrivals for a >= 3-bin refit window, then force a retrain.
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += 0.7;
    ASSERT_TRUE(fleet.Observe("svc", t).ok());
  }
  ASSERT_TRUE(fleet.RequestRetrain("svc").ok());
  // The inline job already ran (and failed); the next boundary notices.
  auto served = fleet.Plan("svc", t + 1.0);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  auto freshness_state = fleet.Freshness("svc");
  ASSERT_TRUE(freshness_state.ok());
  EXPECT_EQ(freshness_state->retrain_failures, 1u);
  EXPECT_EQ(freshness_state->retrains_completed, 0u);
  EXPECT_EQ(freshness_state->swaps_applied, 0u) << "last-good model stays";
  auto health = fleet.Health("svc");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->consecutive_retrain_failures, 1u);
  EXPECT_EQ(health->retrain_retry_at, (t + 1.0) + 100.0);
  EXPECT_EQ(health->last_error.code(), StatusCode::kRuntimeError);

  // The tenant keeps serving plans off the last-good model throughout.
  EXPECT_TRUE(fleet.Plan("svc", t + 3.0).ok());

  // A later (post-backoff) retrain succeeds and clears the streak.
  ASSERT_TRUE(fleet.RequestRetrain("svc").ok());
  ASSERT_TRUE(fleet.Plan("svc", t + 5.0).ok());
  freshness_state = fleet.Freshness("svc");
  ASSERT_TRUE(freshness_state.ok());
  EXPECT_EQ(freshness_state->retrains_completed, 1u);
  health = fleet.Health("svc");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->consecutive_retrain_failures, 0u);
  EXPECT_EQ(health->retrain_retry_at, -kInf);
}

// ---------------------------------------------------------------------------
// Atomic snapshot writes + health persistence.
// ---------------------------------------------------------------------------

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "rs_fault_test_" + std::to_string(::getpid()) +
         "_" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(AtomicFileTest, RetriesThroughInjectedWriteAndRenameFaults) {
  const std::string path = TempPath("retry.bin");
  ASSERT_TRUE(persist::AtomicWriteFile(path, "before").ok());
  fault::FaultPlan plan;
  fault::FaultRule write_fault;
  write_fault.site = "persist.write";
  write_fault.hit = 1;
  plan.rules.push_back(write_fault);
  fault::FaultRule rename_fault;
  rename_fault.site = "persist.rename";
  rename_fault.hit = 1;
  plan.rules.push_back(rename_fault);
  fault::ScopedFaultInjection inject(std::move(plan));

  // Attempt 1 dies in the write, attempt 2 in the rename, attempt 3 lands.
  ASSERT_TRUE(persist::AtomicWriteFile(path, "after").ok());
  EXPECT_EQ(Slurp(path), "after");
  EXPECT_EQ(inject.total_fired(), 2u);
  std::remove(path.c_str());
}

TEST(AtomicFileTest, ExhaustedRetriesLeaveThePreviousFileIntact) {
  const std::string path = TempPath("exhausted.bin");
  ASSERT_TRUE(persist::AtomicWriteFile(path, "precious").ok());
  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.site = "persist.write";
  rule.hit = 1;
  rule.period = 1;  // Every attempt fails.
  plan.rules.push_back(rule);
  fault::ScopedFaultInjection inject(std::move(plan));

  const Status st = persist::AtomicWriteFile(path, "clobber");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("3 attempts"), std::string::npos);
  EXPECT_EQ(Slurp(path), "precious") << "the old snapshot must survive";
  EXPECT_TRUE(Slurp(path + ".tmp").empty()) << "temp file cleaned up";
  std::remove(path.c_str());
}

TEST(AtomicFileTest, DurabilityKnobOffStillCommitsAtomically) {
  const std::string path = TempPath("durability_off.bin");
  persist::AtomicWriteOptions options;
  options.durability = persist::Durability::kNone;
  ASSERT_TRUE(persist::AtomicWriteFile(path, "v1", options).ok());
  ASSERT_TRUE(persist::AtomicWriteFile(path, "v2", options).ok());
  EXPECT_EQ(Slurp(path), "v2");
  EXPECT_TRUE(Slurp(path + ".tmp").empty());
  std::remove(path.c_str());
}

TEST(AtomicFileTest, RemoveStaleTempFilesSweepsOnlyOrphans) {
  const std::string dir = TempPath("tmpsweep");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(persist::AtomicWriteFile(dir + "/keep.bin", "keep").ok());
  // Strand two orphans the way a crash between temp-write and rename does.
  std::ofstream(dir + "/a.bin.tmp") << "orphan";
  std::ofstream(dir + "/b.bin.tmp") << "orphan";
  EXPECT_EQ(persist::RemoveStaleTempFiles(dir), 2u);
  EXPECT_EQ(Slurp(dir + "/keep.bin"), "keep") << "committed files survive";
  EXPECT_TRUE(Slurp(dir + "/a.bin.tmp").empty());
  EXPECT_EQ(persist::RemoveStaleTempFiles(dir), 0u) << "sweep is idempotent";
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

TEST(FleetDegradationTest, HealthStateSurvivesSaveAndLoad) {
  const auto train = MakeTrace(41, 4.0 * kPeriodS, 0.5);
  ScalerFleet fleet(0);
  fleet.ConfigureRobustness(TightBreaker());
  ASSERT_TRUE(
      fleet.Register("svc", BuildScaler(train, kPeriodS, "backup_pool")).ok());
  {
    fault::FaultPlan plan;
    plan.rules.push_back(PlanFailureRule("svc", /*hit=*/1, /*period=*/1));
    fault::ScopedFaultInjection inject(std::move(plan));
    ASSERT_TRUE(fleet.Plan("svc", 2.0).ok());
    ASSERT_TRUE(fleet.Plan("svc", 4.0).ok());  // Quarantined, retry_at 14.
  }
  const std::string path = TempPath("fleet_health.bin");
  ASSERT_TRUE(fleet.SaveFleetToFile(path).ok());
  auto restored = ScalerFleet::LoadFleetFromFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::remove(path.c_str());

  auto before = fleet.Health("svc");
  auto after = restored->Health("svc");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->health, TenantHealth::kQuarantined);
  EXPECT_EQ(after->plan_failures, before->plan_failures);
  EXPECT_EQ(after->fallbacks_served, before->fallbacks_served);
  EXPECT_EQ(after->breaker_opens, before->breaker_opens);
  EXPECT_EQ(after->retry_at, before->retry_at)
      << "the restored fleet resumes mid-backoff, not amnesically";

  // And the restored breaker keeps working: still gated before retry_at,
  // probes back to healthy after (no faults installed now).
  restored->ConfigureRobustness(TightBreaker());
  auto gated = restored->Plan("svc", 6.0);
  ASSERT_TRUE(gated.ok());
  auto still = restored->Health("svc");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->health, TenantHealth::kQuarantined);
  ASSERT_TRUE(restored->Plan("svc", 20.0).ok());
  auto recovered = restored->Health("svc");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->health, TenantHealth::kHealthy);
}

// ---------------------------------------------------------------------------
// The headline chaos guarantee: a seeded storm over a multi-tenant fleet
// replays byte-identically across worker counts {0, 1, 8} — same actions,
// same degradation counters, same faults fired — and an empty plan is
// byte-identical to no injection at all.
// ---------------------------------------------------------------------------

struct StormRun {
  std::vector<std::vector<sim::ScalingAction>> actions;  // [tenant][boundary]
  std::vector<std::vector<bool>> degraded;               // [tenant][boundary]
  std::vector<TenantHealthInfo> health;                  // [tenant]
  std::uint64_t total_fired = 0;
  std::size_t boundaries_served = 0;
  std::size_t boundaries_total = 0;
};

StormRun DriveStorm(const workload::Trace& train,
                    const std::vector<std::string>& tenants,
                    std::size_t workers, std::uint64_t storm_seed) {
  ScalerFleet fleet(workers);
  RobustnessPolicy policy;
  policy.breaker_threshold = 2;
  policy.backoff_base = 6.0;
  policy.backoff_max = 24.0;
  policy.backoff_jitter = 0.25;  // Jitter on: it must also be deterministic.
  fleet.ConfigureRobustness(policy);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const char* spec = i % 2 == 0 ? "backup_pool" : "robust_hp:target=0.9";
    EXPECT_TRUE(fleet.Register(tenants[i], BuildScaler(train, kPeriodS, spec))
                    .ok());
  }

  StormRun run;
  run.actions.resize(tenants.size());
  run.degraded.resize(tenants.size());
  fault::StormOptions options;
  options.fire_probability = 0.06;  // Dense enough to trip breakers.
  fault::ScopedFaultInjection inject(fault::MakeStormPlan(storm_seed, options));
  for (int step = 1; step <= 50; ++step) {
    const double now = 2.0 * step;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      // Injected observe faults reject deterministically; ignore them the
      // way a serving front end would (drop the datapoint, keep going).
      (void)fleet.Observe(tenants[i],
                          now - 1.0 + 0.01 * static_cast<double>(i));
    }
    auto plans = fleet.PlanAll(now);
    EXPECT_EQ(plans.size(), tenants.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      ++run.boundaries_total;
      EXPECT_TRUE(plans[i].status.ok())
          << plans[i].tenant << " at t=" << now << ": "
          << plans[i].status.ToString();
      if (plans[i].status.ok()) ++run.boundaries_served;
      run.actions[i].push_back(plans[i].action);
      run.degraded[i].push_back(plans[i].degraded);
    }
  }
  for (const auto& tenant : tenants) {
    auto health = fleet.Health(tenant);
    EXPECT_TRUE(health.ok());
    run.health.push_back(std::move(health).ValueOrDie());
  }
  run.total_fired = inject.total_fired();
  return run;
}

void ExpectRunsIdentical(const StormRun& a, const StormRun& b,
                         const std::string& label) {
  EXPECT_EQ(a.total_fired, b.total_fired) << label;
  EXPECT_EQ(a.boundaries_served, b.boundaries_served) << label;
  ASSERT_EQ(a.actions.size(), b.actions.size()) << label;
  for (std::size_t i = 0; i < a.actions.size(); ++i) {
    EXPECT_EQ(a.degraded[i], b.degraded[i]) << label << ", tenant " << i;
    ASSERT_EQ(a.actions[i].size(), b.actions[i].size()) << label;
    for (std::size_t j = 0; j < a.actions[i].size(); ++j) {
      EXPECT_EQ(a.actions[i][j].deletions, b.actions[i][j].deletions)
          << label << ", tenant " << i << ", boundary " << j;
      ASSERT_EQ(a.actions[i][j].creation_times.size(),
                b.actions[i][j].creation_times.size())
          << label << ", tenant " << i << ", boundary " << j;
      for (std::size_t k = 0; k < a.actions[i][j].creation_times.size(); ++k) {
        // Byte-identical across worker counts, faults and all.
        EXPECT_EQ(a.actions[i][j].creation_times[k],
                  b.actions[i][j].creation_times[k])
            << label << ", tenant " << i << ", boundary " << j;
      }
    }
    EXPECT_EQ(a.health[i].health, b.health[i].health) << label;
    EXPECT_EQ(a.health[i].plan_failures, b.health[i].plan_failures) << label;
    EXPECT_EQ(a.health[i].fallbacks_served, b.health[i].fallbacks_served)
        << label;
    EXPECT_EQ(a.health[i].rejected_observations,
              b.health[i].rejected_observations)
        << label;
    EXPECT_EQ(a.health[i].breaker_opens, b.health[i].breaker_opens) << label;
    EXPECT_EQ(a.health[i].probes, b.health[i].probes) << label;
    EXPECT_EQ(a.health[i].retry_at, b.health[i].retry_at)
        << label << " (jittered backoff must replay exactly)";
  }
}

TEST(ChaosParityTest, StormReplaysByteIdenticallyAcrossWorkerCounts) {
  const auto train = MakeTrace(50, 4.0 * kPeriodS, 0.8);
  const std::vector<std::string> tenants = {"svc-0", "svc-1", "svc-2",
                                            "svc-3"};
  const std::uint64_t storm_seed = 4242;
  const StormRun base = DriveStorm(train, tenants, 0, storm_seed);
  EXPECT_GT(base.total_fired, 0u) << "the storm must actually storm";
  EXPECT_EQ(base.boundaries_served, base.boundaries_total)
      << "every boundary is served (real plan or fallback)";
  const StormRun one = DriveStorm(train, tenants, 1, storm_seed);
  const StormRun eight = DriveStorm(train, tenants, 8, storm_seed);
  ExpectRunsIdentical(base, one, "0 vs 1 workers");
  ExpectRunsIdentical(base, eight, "0 vs 8 workers");
}

TEST(ChaosParityTest, EmptyPlanInstalledMatchesNoInjection) {
  const auto train = MakeTrace(51, 4.0 * kPeriodS, 0.8);
  const std::vector<std::string> tenants = {"svc-0", "svc-1"};

  const auto drive = [&](bool install) {
    ScalerFleet fleet(2);
    for (const auto& name : tenants) {
      EXPECT_TRUE(
          fleet.Register(name, BuildScaler(train, kPeriodS, "backup_pool"))
              .ok());
    }
    std::optional<fault::ScopedFaultInjection> inject;
    if (install) inject.emplace(fault::FaultPlan{});
    std::vector<sim::ScalingAction> actions;
    for (int step = 1; step <= 20; ++step) {
      const double now = 2.0 * step;
      for (const auto& name : tenants) {
        EXPECT_TRUE(fleet.Observe(name, now - 1.0).ok());
      }
      for (auto& plan : fleet.PlanAll(now)) {
        EXPECT_TRUE(plan.status.ok());
        EXPECT_FALSE(plan.degraded);
        actions.push_back(std::move(plan.action));
      }
    }
    return actions;
  };

  const auto without = drive(false);
  const auto with = drive(true);
  ASSERT_EQ(without.size(), with.size());
  for (std::size_t i = 0; i < without.size(); ++i) {
    EXPECT_EQ(without[i].deletions, with[i].deletions);
    ASSERT_EQ(without[i].creation_times.size(), with[i].creation_times.size());
    for (std::size_t j = 0; j < without[i].creation_times.size(); ++j) {
      EXPECT_EQ(without[i].creation_times[j], with[i].creation_times[j]);
    }
  }
}

}  // namespace
}  // namespace rs

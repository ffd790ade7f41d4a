// Tests of rs::api::ScalerFleet: tenant lifecycle isolation, deterministic
// PlanAll ordering, per-tenant error isolation, FleetSnapshot aggregation,
// and the headline guarantee that a fleet (any worker count) reproduces the
// per-tenant action sequences of independent sequential Scalers. The
// randomized interleaving version of the parity check lives in
// tests/property_test.cpp; this file keeps the deterministic fast cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rs/api/api.hpp"
#include "rs/stats/rng.hpp"

namespace rs::api {
namespace {

// ---------------------------------------------------------------------------
// Shared fixture: a small sinusoidal workload (10-min cycles) so every
// Scaler build in this file trains in milliseconds.
// ---------------------------------------------------------------------------

struct Workload {
  workload::Trace train;
  workload::Trace test;
  double dt = 30.0;
};

Workload MakeFleetWorkload(std::uint64_t seed) {
  const double period_s = 600.0, dt = 30.0;
  const double horizon = 8.0 * period_s;
  std::vector<double> rates;
  for (double t = 0.5 * dt; t < horizon; t += dt) {
    const double phase = std::fmod(t, period_s) / period_s;
    rates.push_back(0.3 + 0.2 * std::sin(2.0 * M_PI * phase));
  }
  auto intensity = *workload::PiecewiseConstantIntensity::Make(rates, dt);
  stats::Rng rng(seed);
  auto trace = *workload::MakeTraceFromIntensity(
      &rng, intensity, stats::DurationDistribution::Exponential(15.0));
  Workload w;
  auto [train, test] = trace.SplitAt(horizon - 2.0 * period_s);
  w.train = std::move(train);
  w.test = std::move(test);
  return w;
}

Scaler BuildTenantScaler(const Workload& w, const char* spec_string) {
  auto spec = ParseStrategySpec(spec_string);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  auto scaler = ScalerBuilder()
                    .WithTrace(w.train)
                    .WithBinWidth(w.dt)
                    .WithForecastHorizon(w.test.horizon())
                    .WithStrategy(*spec)
                    .WithPlanningInterval(2.0)
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
      // Byte-identical, not approximately equal: both sides must execute
      // the same arithmetic in the same order.
      EXPECT_EQ(expected[i].creation_times[j], got[i].creation_times[j])
          << label << ", action " << i << ", creation " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

TEST(ScalerFleetTest, RegisterRejectsEmptyAndDuplicateNames) {
  const Workload w = MakeFleetWorkload(21);
  ScalerFleet fleet;
  EXPECT_FALSE(fleet.Register("", BuildTenantScaler(w, "backup_pool")).ok());
  ASSERT_TRUE(
      fleet.Register("svc-a", BuildTenantScaler(w, "backup_pool")).ok());
  auto dup = fleet.Register("svc-a", BuildTenantScaler(w, "backup_pool"));
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.message().find("svc-a"), std::string::npos) << dup.ToString();
  EXPECT_EQ(fleet.size(), 1u);
}

TEST(ScalerFleetTest, UnknownTenantErrorsNameTenantAndOperation) {
  ScalerFleet fleet;
  auto retire = fleet.Retire("ghost");
  ASSERT_FALSE(retire.ok());
  EXPECT_NE(retire.message().find("ghost"), std::string::npos);
  EXPECT_NE(retire.message().find("Retire"), std::string::npos);
  EXPECT_FALSE(fleet.Observe("ghost", 1.0).ok());
  EXPECT_FALSE(fleet.Plan("ghost", 1.0).ok());
  EXPECT_EQ(fleet.Find("ghost"), nullptr);
}

TEST(ScalerFleetTest, TenantsKeepRegistrationOrderAcrossRetire) {
  const Workload w = MakeFleetWorkload(22);
  ScalerFleet fleet;
  for (const char* name : {"svc-a", "svc-b", "svc-c", "svc-d"}) {
    ASSERT_TRUE(
        fleet.Register(name, BuildTenantScaler(w, "backup_pool")).ok());
  }
  ASSERT_TRUE(fleet.Retire("svc-b").ok());
  EXPECT_EQ(fleet.Tenants(),
            (std::vector<std::string>{"svc-a", "svc-c", "svc-d"}));
  // PlanAll output follows the same order.
  const auto plans = fleet.PlanAll(10.0);
  ASSERT_EQ(plans.size(), 3u);
  EXPECT_EQ(plans[0].tenant, "svc-a");
  EXPECT_EQ(plans[1].tenant, "svc-c");
  EXPECT_EQ(plans[2].tenant, "svc-d");
}

TEST(ScalerFleetTest, LifecycleLeavesOtherTenantsUndisturbed) {
  const Workload w = MakeFleetWorkload(23);
  ScalerFleet fleet;
  ASSERT_TRUE(
      fleet.Register("keep", BuildTenantScaler(w, "backup_pool:pool_size=2"))
          .ok());
  ASSERT_TRUE(
      fleet.Register("churn", BuildTenantScaler(w, "backup_pool")).ok());
  for (const auto& q : w.test.queries()) {
    if (q.arrival_time > 300.0) break;
    ASSERT_TRUE(fleet.Observe("keep", q.arrival_time).ok());
  }
  (void)fleet.PlanAll(300.0);
  const ServingSnapshot before = fleet.Find("keep")->Snapshot();

  // Retire one neighbor, replace another's model, register a newcomer.
  ASSERT_TRUE(fleet.Retire("churn").ok());
  ASSERT_TRUE(
      fleet.Register("churn", BuildTenantScaler(w, "backup_pool")).ok());
  ASSERT_TRUE(
      fleet
          .ReplaceModel("churn", BuildTenantScaler(w, "backup_pool:pool_size=1"))
          .ok());

  const ServingSnapshot after = fleet.Find("keep")->Snapshot();
  EXPECT_EQ(before.now, after.now);
  EXPECT_EQ(before.queries_observed, after.queries_observed);
  EXPECT_EQ(before.planning_rounds, after.planning_rounds);
  EXPECT_EQ(before.creations_requested, after.creations_requested);
  // The replaced tenant starts from a fresh serving state.
  const ServingSnapshot churn = fleet.Find("churn")->Snapshot();
  EXPECT_FALSE(churn.started);
  EXPECT_EQ(churn.queries_observed, 0u);
}

// ---------------------------------------------------------------------------
// Batched planning
// ---------------------------------------------------------------------------

TEST(ScalerFleetTest, PlanAllIsolatesPerTenantErrors) {
  const Workload w = MakeFleetWorkload(24);
  ScalerFleet fleet;
  ASSERT_TRUE(
      fleet.Register("ahead", BuildTenantScaler(w, "backup_pool")).ok());
  ASSERT_TRUE(
      fleet.Register("behind", BuildTenantScaler(w, "backup_pool")).ok());
  // Advance one tenant's serving clock past the batch time.
  ASSERT_TRUE(fleet.Plan("ahead", 100.0).ok());

  const auto plans = fleet.PlanAll(50.0);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_FALSE(plans[0].status.ok()) << plans[0].status.ToString();
  EXPECT_NE(plans[0].status.message().find("precedes"), std::string::npos)
      << plans[0].status.ToString();
  EXPECT_TRUE(plans[1].status.ok()) << plans[1].status.ToString();
  // The failed tenant's state was not advanced by the failed call.
  EXPECT_EQ(fleet.Find("ahead")->Snapshot().now, 100.0);
  EXPECT_EQ(fleet.Find("behind")->Snapshot().now, 50.0);
}

TEST(ScalerFleetTest, ConfigureServingAllValidatesAndNamesTenant) {
  const Workload w = MakeFleetWorkload(25);
  ScalerFleet fleet;
  ASSERT_TRUE(
      fleet.Register("svc-a", BuildTenantScaler(w, "backup_pool")).ok());
  sim::EngineOptions bad;
  bad.creation_latency = -1.0;
  auto st = fleet.ConfigureServingAll(bad);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("svc-a"), std::string::npos) << st.ToString();

  sim::EngineOptions good;
  good.seed = 7;
  EXPECT_TRUE(fleet.ConfigureServingAll(good).ok());
}

TEST(ScalerFleetTest, SnapshotSumsPerTenantCounters) {
  const Workload w = MakeFleetWorkload(26);
  ScalerFleet fleet(2);
  ASSERT_TRUE(
      fleet.Register("svc-a", BuildTenantScaler(w, "robust_hp:target=0.9"))
          .ok());
  ASSERT_TRUE(
      fleet.Register("svc-b", BuildTenantScaler(w, "backup_pool:pool_size=1"))
          .ok());
  std::size_t tenant_toggle = 0;
  for (const auto& q : w.test.queries()) {
    if (q.arrival_time > 400.0) break;
    const char* tenant = (tenant_toggle++ % 2 == 0) ? "svc-a" : "svc-b";
    ASSERT_TRUE(fleet.Observe(tenant, q.arrival_time).ok());
  }
  (void)fleet.PlanAll(400.0);

  const FleetSnapshot snap = fleet.Snapshot();
  EXPECT_EQ(snap.tenants, 2u);
  EXPECT_EQ(snap.tenants_started, 2u);
  ASSERT_EQ(snap.per_tenant.size(), 2u);
  EXPECT_EQ(snap.per_tenant[0].first, "svc-a");
  EXPECT_EQ(snap.per_tenant[1].first, "svc-b");
  FleetSnapshot sum;
  for (const auto& [name, tenant_snap] : snap.per_tenant) {
    sum.queries_observed += tenant_snap.queries_observed;
    sum.planning_rounds += tenant_snap.planning_rounds;
    sum.creations_requested += tenant_snap.creations_requested;
    sum.deletions_requested += tenant_snap.deletions_requested;
    sum.cold_starts += tenant_snap.cold_starts;
    sum.instances_alive += tenant_snap.instances_alive;
    sum.instances_ready += tenant_snap.instances_ready;
    sum.scheduled_creations += tenant_snap.scheduled_creations;
    sum.arrivals_retained += tenant_snap.arrivals_retained;
    sum.actions_retained += tenant_snap.actions_retained;
    sum.planning_workspace_bytes += tenant_snap.planning_workspace_bytes;
  }
  EXPECT_EQ(snap.queries_observed, sum.queries_observed);
  EXPECT_GT(snap.queries_observed, 0u);
  EXPECT_EQ(snap.planning_rounds, sum.planning_rounds);
  EXPECT_EQ(snap.creations_requested, sum.creations_requested);
  EXPECT_EQ(snap.deletions_requested, sum.deletions_requested);
  EXPECT_EQ(snap.cold_starts, sum.cold_starts);
  EXPECT_EQ(snap.instances_alive, sum.instances_alive);
  EXPECT_EQ(snap.instances_ready, sum.instances_ready);
  EXPECT_EQ(snap.scheduled_creations, sum.scheduled_creations);
  // Retained-vs-total accounting survives aggregation: what a
  // snapshot/restore would persist vs what flowed through over time.
  EXPECT_EQ(snap.arrivals_retained, sum.arrivals_retained);
  EXPECT_LE(snap.arrivals_retained, snap.queries_observed);
  EXPECT_EQ(snap.actions_retained, sum.actions_retained);
  EXPECT_LE(snap.actions_retained, snap.planning_rounds);
  // The robust_hp tenant planned, so it retains Monte Carlo workspace; the
  // aggregate must surface those bytes.
  EXPECT_EQ(snap.planning_workspace_bytes, sum.planning_workspace_bytes);
  EXPECT_GT(snap.planning_workspace_bytes, 0u);
}

TEST(ScalerFleetTest, SnapshotAggregationUnchangedAfterTenantRestore) {
  // Snapshot → retire → restore of one tenant must leave the FleetSnapshot
  // sums exactly where they were: the restored mirror carries the same
  // counters, retained windows, instances and schedule. Only the
  // registration position (and the cold planning workspace) may change.
  const Workload w = MakeFleetWorkload(27);
  ScalerFleet fleet(2);
  ASSERT_TRUE(
      fleet.Register("svc-a", BuildTenantScaler(w, "robust_hp:target=0.9"))
          .ok());
  ASSERT_TRUE(
      fleet.Register("svc-b", BuildTenantScaler(w, "backup_pool:pool_size=1"))
          .ok());
  for (const auto& q : w.test.queries()) {
    if (q.arrival_time > 400.0) break;
    ASSERT_TRUE(fleet.Observe("svc-a", q.arrival_time).ok());
    ASSERT_TRUE(fleet.Observe("svc-b", q.arrival_time).ok());
  }
  (void)fleet.PlanAll(400.0);

  const FleetSnapshot before = fleet.Snapshot();
  std::stringstream tenant_snapshot;
  ASSERT_TRUE(fleet.SnapshotTenant("svc-a", tenant_snapshot).ok());
  ASSERT_TRUE(fleet.Retire("svc-a").ok());
  ASSERT_TRUE(fleet.RestoreTenant(tenant_snapshot).ok());

  const FleetSnapshot after = fleet.Snapshot();
  EXPECT_EQ(after.tenants, before.tenants);
  EXPECT_EQ(after.tenants_started, before.tenants_started);
  EXPECT_EQ(after.queries_observed, before.queries_observed);
  EXPECT_EQ(after.instances_alive, before.instances_alive);
  EXPECT_EQ(after.instances_ready, before.instances_ready);
  EXPECT_EQ(after.scheduled_creations, before.scheduled_creations);
  EXPECT_EQ(after.cold_starts, before.cold_starts);
  EXPECT_EQ(after.creations_requested, before.creations_requested);
  EXPECT_EQ(after.deletions_requested, before.deletions_requested);
  EXPECT_EQ(after.planning_rounds, before.planning_rounds);
  EXPECT_EQ(after.arrivals_retained, before.arrivals_retained);
  EXPECT_EQ(after.actions_retained, before.actions_retained);
  // Registration order: the restored tenant re-registers at the end.
  ASSERT_EQ(after.per_tenant.size(), 2u);
  EXPECT_EQ(after.per_tenant[0].first, "svc-b");
  EXPECT_EQ(after.per_tenant[1].first, "svc-a");
}

// ---------------------------------------------------------------------------
// Fleet-vs-sequential parity (deterministic fast case; the randomized
// interleaving + thread-count sweep lives in tests/property_test.cpp).
// ---------------------------------------------------------------------------

TEST(ScalerFleetTest, FleetMatchesSequentialScalersAcrossThreadCounts) {
  const std::vector<std::pair<std::string, const char*>> tenants = {
      {"hp", "robust_hp:target=0.9"},
      {"pool", "backup_pool:pool_size=2"},
      {"adap",
       "adaptive_backup_pool:multiplier=20,update_interval=30,"
       "estimate_window=60"},
  };
  std::vector<Workload> workloads;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    workloads.push_back(MakeFleetWorkload(40 + i));
  }

  // Reference: independent Scalers driven sequentially, full action logs.
  std::vector<std::vector<sim::ScalingAction>> reference;
  std::size_t reference_workspace_bytes = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    Scaler scaler = BuildTenantScaler(workloads[i], tenants[i].second);
    ASSERT_TRUE(
        scaler.ConfigureHistoryRetention(sim::kUnboundedHistory).ok());
    for (const auto& q : workloads[i].test.queries()) {
      ASSERT_TRUE(scaler.Observe(q.arrival_time).ok());
    }
    ASSERT_TRUE(scaler.Plan(workloads[i].test.horizon()).ok());
    reference.push_back(scaler.ActionLog());
    reference_workspace_bytes += scaler.Snapshot().planning_workspace_bytes;
  }
  ASSERT_GT(reference_workspace_bytes, 0u);

  for (std::size_t threads : {0u, 1u, 4u}) {
    ScalerFleet fleet(threads);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      ASSERT_TRUE(fleet
                      .Register(tenants[i].first,
                                BuildTenantScaler(workloads[i],
                                                  tenants[i].second))
                      .ok());
      ASSERT_TRUE(fleet.Find(tenants[i].first)
                      ->ConfigureHistoryRetention(sim::kUnboundedHistory)
                      .ok());
    }
    // Interleave arrivals across tenants in global time order.
    std::vector<std::pair<double, std::size_t>> events;
    double horizon = 0.0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      for (const auto& q : workloads[i].test.queries()) {
        events.emplace_back(q.arrival_time, i);
      }
      horizon = std::max(horizon, workloads[i].test.horizon());
    }
    std::sort(events.begin(), events.end());
    for (const auto& [t, i] : events) {
      ASSERT_TRUE(fleet.Observe(tenants[i].first, t).ok());
    }
    for (const auto& plan : fleet.PlanAll(horizon)) {
      ASSERT_TRUE(plan.status.ok())
          << plan.tenant << ": " << plan.status.ToString();
    }
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      // The reference planned each tenant to its own horizon; the shared
      // PlanAll must hit the same time or the tick counts diverge. All
      // workloads share one horizon by construction — assert it.
      ASSERT_EQ(workloads[i].test.horizon(), horizon);
      ExpectActionsIdentical(
          reference[i], fleet.Find(tenants[i].first)->ActionLog(),
          tenants[i].first + " @" + std::to_string(threads) + " threads");
    }
    // Planning memory is as deterministic as the actions: each tenant plans
    // serially, so its retained workspace never depends on the pool.
    EXPECT_EQ(fleet.Snapshot().planning_workspace_bytes,
              reference_workspace_bytes)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace rs::api

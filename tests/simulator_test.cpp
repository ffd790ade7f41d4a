// Tests for the discrete-event engine: hand-computed Algorithm 1 scenarios
// (hit / pending / cold start), cost accounting, cancellation semantics,
// metrics, and the real-environment knobs.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "rs/simulator/engine.hpp"
#include "rs/simulator/environment.hpp"
#include "rs/simulator/metrics.hpp"
#include "rs/workload/trace.hpp"

namespace rs::sim {
namespace {

/// Test strategy: schedules a fixed list of creation times at start and
/// nothing afterwards.
class ScriptedScaler : public Autoscaler {
 public:
  explicit ScriptedScaler(std::vector<double> creations)
      : creations_(std::move(creations)) {}
  const char* name() const override { return "scripted"; }
  ScalingAction Initialize(const SimContext&) override {
    ScalingAction a;
    a.creation_times = creations_;
    return a;
  }

 private:
  std::vector<double> creations_;
};

/// Purely reactive: never schedules anything (equivalent to BP with B=0).
class NullScaler : public Autoscaler {
 public:
  const char* name() const override { return "null"; }
};

EngineOptions DetPending(double tau) {
  EngineOptions opts;
  opts.pending = stats::DurationDistribution::Deterministic(tau);
  return opts;
}

TEST(EngineTest, HitCase) {
  // Instance created at 0, tau=2 => ready at 2; query arrives at 5.
  workload::Trace trace({{5.0, 10.0}}, 100.0);
  ScriptedScaler scaler({0.0});
  auto result = Simulate(trace, &scaler, DetPending(2.0));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->queries.size(), 1u);
  const auto& q = result->queries[0];
  EXPECT_TRUE(q.hit);
  EXPECT_FALSE(q.cold_start);
  EXPECT_DOUBLE_EQ(q.wait_time, 0.0);
  EXPECT_DOUBLE_EQ(q.response_time, 10.0);
  // Lifecycle: created at 0, finishes processing at 15.
  ASSERT_EQ(result->instances.size(), 1u);
  EXPECT_DOUBLE_EQ(result->instances[0].lifecycle_cost, 15.0);
  EXPECT_TRUE(result->instances[0].served_query);
}

TEST(EngineTest, PendingCase) {
  // Instance created at 4, tau=3 => ready at 7; query arrives at 5: waits 2.
  workload::Trace trace({{5.0, 10.0}}, 100.0);
  ScriptedScaler scaler({4.0});
  auto result = Simulate(trace, &scaler, DetPending(3.0));
  ASSERT_TRUE(result.ok());
  const auto& q = result->queries[0];
  EXPECT_FALSE(q.hit);
  EXPECT_FALSE(q.cold_start);
  EXPECT_DOUBLE_EQ(q.wait_time, 2.0);
  EXPECT_DOUBLE_EQ(q.response_time, 12.0);
  // Lifecycle: tau + s = 13 (paper's pending-case cost).
  EXPECT_DOUBLE_EQ(result->instances[0].lifecycle_cost, 13.0);
}

TEST(EngineTest, ColdStartCase) {
  // No instance scheduled: query at 5 cold starts, RT = tau + s.
  workload::Trace trace({{5.0, 10.0}}, 100.0);
  NullScaler scaler;
  auto result = Simulate(trace, &scaler, DetPending(3.0));
  ASSERT_TRUE(result.ok());
  const auto& q = result->queries[0];
  EXPECT_FALSE(q.hit);
  EXPECT_TRUE(q.cold_start);
  EXPECT_DOUBLE_EQ(q.wait_time, 3.0);
  EXPECT_DOUBLE_EQ(q.response_time, 13.0);
  EXPECT_DOUBLE_EQ(result->instances[0].lifecycle_cost, 13.0);
}

TEST(EngineTest, ColdStartCancelsScheduledCreation) {
  // Creation scheduled at t=50 is intended for query 1; the query arrives
  // at t=5 and cold starts — the t=50 creation must be cancelled, so only
  // one instance ever exists.
  workload::Trace trace({{5.0, 1.0}}, 100.0);
  ScriptedScaler scaler({50.0});
  auto result = Simulate(trace, &scaler, DetPending(1.0));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->instances.size(), 1u);
  EXPECT_TRUE(result->queries[0].cold_start);
}

TEST(EngineTest, FifoMatchingOrder) {
  // Two instances (created at 0 and 5.5, ready at 1 and 6.5); queries at 5
  // and 6. First query takes the first instance (hit); second gets the
  // still-pending one and waits 0.5 s.
  workload::Trace trace({{5.0, 1.0}, {6.0, 1.0}}, 100.0);
  ScriptedScaler scaler({0.0, 5.5});
  auto result = Simulate(trace, &scaler, DetPending(1.0));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->queries.size(), 2u);
  EXPECT_TRUE(result->queries[0].hit);
  EXPECT_FALSE(result->queries[1].hit);
  EXPECT_FALSE(result->queries[1].cold_start);
  EXPECT_DOUBLE_EQ(result->queries[1].wait_time, 0.5);
}

TEST(EngineTest, LateScheduledCreationIsCancelledByColdStart) {
  // The second instance is scheduled only at t=10, but its query arrives at
  // t=6: Algorithm 1 creates one reactively and cancels the t=10 creation,
  // so exactly two instances ever exist.
  workload::Trace trace({{5.0, 1.0}, {6.0, 1.0}}, 100.0);
  ScriptedScaler scaler({0.0, 10.0});
  auto result = Simulate(trace, &scaler, DetPending(1.0));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->queries.size(), 2u);
  EXPECT_TRUE(result->queries[0].hit);
  EXPECT_TRUE(result->queries[1].cold_start);
  EXPECT_DOUBLE_EQ(result->queries[1].wait_time, 1.0);  // Full pending time.
  EXPECT_EQ(result->instances.size(), 2u);
}

TEST(EngineTest, CreationAtArrivalInstantCountsAsPending) {
  // x == xi: Algorithm 1's middle branch (x_i <= xi < x_i + tau).
  workload::Trace trace({{5.0, 1.0}}, 100.0);
  ScriptedScaler scaler({5.0});
  auto result = Simulate(trace, &scaler, DetPending(2.0));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->queries[0].hit);
  EXPECT_FALSE(result->queries[0].cold_start);
  EXPECT_DOUBLE_EQ(result->queries[0].wait_time, 2.0);
}

TEST(EngineTest, UnusedInstanceChargedToHorizon) {
  workload::Trace trace({}, 100.0);
  ScriptedScaler scaler({20.0});
  auto result = Simulate(trace, &scaler, DetPending(1.0));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->instances.size(), 1u);
  EXPECT_FALSE(result->instances[0].served_query);
  EXPECT_DOUBLE_EQ(result->instances[0].lifecycle_cost, 80.0);
}

TEST(EngineTest, IdleChargingCanBeDisabled) {
  workload::Trace trace({}, 100.0);
  ScriptedScaler scaler({20.0});
  EngineOptions opts = DetPending(1.0);
  opts.charge_idle_until_horizon = false;
  auto result = Simulate(trace, &scaler, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->instances[0].lifecycle_cost, 0.0);
}

TEST(EngineTest, IdleTimePlusFixedEqualsLifecycle) {
  // Hit case decomposition: cost = idle + tau + s.
  workload::Trace trace({{30.0, 7.0}}, 100.0);
  ScriptedScaler scaler({10.0});
  auto result = Simulate(trace, &scaler, DetPending(4.0));
  ASSERT_TRUE(result.ok());
  // Created 10, ready 14, consumed 30 => idle 16; total 16+4+7 = 27.
  EXPECT_DOUBLE_EQ(result->instances[0].lifecycle_cost, 27.0);
}

TEST(EngineTest, NullStrategyRejected) {
  workload::Trace trace({{1.0, 1.0}}, 10.0);
  EXPECT_FALSE(Simulate(trace, nullptr).ok());
}

TEST(EngineTest, EmptyHorizonRejected) {
  workload::Trace trace({}, 0.0);
  NullScaler scaler;
  EXPECT_FALSE(Simulate(trace, &scaler).ok());
}

TEST(EngineTest, UnboundedHorizonEndsWhenNoEventRemains) {
  // Without planning ticks the loop runs out of events: a run to an
  // infinite horizon must stop there rather than tick at infinity.
  workload::Trace trace({{5.0, 1.0}}, std::numeric_limits<double>::infinity());
  ScriptedScaler scaler({1.0, 2.0});
  auto result = Simulate(trace, &scaler, DetPending(2.0));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries.size(), 1u);
  EXPECT_EQ(result->instances.size(), 2u);
}

TEST(EngineTest, CreationLatencyDelaysReady) {
  workload::Trace trace({{5.0, 1.0}}, 100.0);
  ScriptedScaler scaler({0.0});
  EngineOptions opts = DetPending(2.0);
  opts.creation_latency = 10.0;  // Ready at 12 > 5: pending case.
  auto result = Simulate(trace, &scaler, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->queries[0].hit);
  EXPECT_DOUBLE_EQ(result->queries[0].wait_time, 7.0);
}

TEST(EngineTest, PendingJitterStaysInBounds) {
  workload::Trace trace({}, 1000.0);
  std::vector<double> creations(50, 0.0);
  ScriptedScaler scaler(creations);
  EngineOptions opts = DetPending(10.0);
  opts.pending_jitter = 0.2;
  auto result = Simulate(trace, &scaler, opts);
  ASSERT_TRUE(result.ok());
  for (const auto& inst : result->instances) {
    const double pending = inst.ready_time - inst.creation_time;
    EXPECT_GE(pending, 8.0 - 1e-9);
    EXPECT_LE(pending, 12.0 + 1e-9);
  }
}

/// Counts planning-tick callbacks (for boundary/charging tests).
class TickCounter : public Autoscaler {
 public:
  explicit TickCounter(double interval, double creation_offset = -1.0)
      : interval_(interval), creation_offset_(creation_offset) {}
  const char* name() const override { return "tick-counter"; }
  double planning_interval() const override { return interval_; }
  ScalingAction OnPlanningTick(const SimContext& ctx) override {
    ticks_.push_back(ctx.now);
    if (creation_offset_ >= 0.0) {
      return {.creation_times = {ctx.now + creation_offset_}, .deletions = 0};
    }
    return {};
  }
  const std::vector<double>& ticks() const { return ticks_; }

 private:
  double interval_;
  double creation_offset_;
  std::vector<double> ticks_;
};

TEST(EngineTest, ProcessesPlanningTickExactlyAtHorizon) {
  // The horizon is a closed boundary: a tick landing exactly on it is
  // processed (matching the serving mirror, where Plan(horizon) processes
  // the tick at `horizon`). Grid 10 over horizon 100 → ticks 0,10,...,100.
  workload::Trace trace({}, 100.0);
  TickCounter on_grid(10.0);
  ASSERT_TRUE(Simulate(trace, &on_grid, DetPending(2.0)).ok());
  ASSERT_EQ(on_grid.ticks().size(), 11u);
  EXPECT_DOUBLE_EQ(on_grid.ticks().front(), 0.0);
  EXPECT_DOUBLE_EQ(on_grid.ticks().back(), 100.0);

  // Off-grid horizon: the last tick before 95 is 90; nothing at 95.
  workload::Trace off_trace({}, 95.0);
  TickCounter off_grid(10.0);
  ASSERT_TRUE(Simulate(off_trace, &off_grid, DetPending(2.0)).ok());
  ASSERT_EQ(off_grid.ticks().size(), 10u);
  EXPECT_DOUBLE_EQ(off_grid.ticks().back(), 90.0);
}

TEST(EngineTest, ValidatesEngineOptions) {
  workload::Trace trace({{5.0, 10.0}}, 100.0);
  NullScaler scaler;

  EngineOptions bad = DetPending(2.0);
  bad.creation_latency = -1.0;
  EXPECT_FALSE(Simulate(trace, &scaler, bad).ok());
  EXPECT_FALSE(ValidateEngineOptions(bad).ok());

  bad = DetPending(2.0);
  bad.pending_jitter = 1.5;
  EXPECT_FALSE(Simulate(trace, &scaler, bad).ok());

  bad.pending_jitter = -0.1;
  EXPECT_FALSE(ValidateEngineOptions(bad).ok());

  EXPECT_TRUE(ValidateEngineOptions(DetPending(2.0)).ok());
}

TEST(EngineTest, FakeDecisionClockMakesChargingDeterministic) {
  // Every planning decision costs exactly 1.5 s on the fake clock, so the
  // creations a tick emits at `now` are clamped to now + 1.5 — bit-exact,
  // machine-independent.
  workload::Trace trace({}, 20.0);
  TickCounter strategy(10.0, /*creation_offset=*/0.0);
  EngineOptions opts = DetPending(2.0);
  opts.charge_idle_until_horizon = false;
  opts.charge_decision_wall_time = true;
  FakeDecisionClock clock(1.5);
  opts.decision_clock = &clock;

  auto result = Simulate(trace, &strategy, opts);
  ASSERT_TRUE(result.ok());
  // Ticks at 0, 10, 20 each schedule one creation "now", charged to +1.5.
  // The creations from t=0 and t=10 execute (1.5, 11.5 <= horizon); the
  // one from t=20 lands at 21.5, past the closed boundary.
  ASSERT_EQ(result->instances.size(), 2u);
  EXPECT_DOUBLE_EQ(result->instances[0].creation_time, 1.5);
  EXPECT_DOUBLE_EQ(result->instances[1].creation_time, 11.5);
  // Two readings bracket each of the three decisions.
  EXPECT_EQ(clock.readings(), 6u);

  // With charging off the clock is never consulted.
  FakeDecisionClock idle_clock(1.5);
  opts.charge_decision_wall_time = false;
  opts.decision_clock = &idle_clock;
  TickCounter uncharged(10.0, 0.0);
  ASSERT_TRUE(Simulate(trace, &uncharged, opts).ok());
  EXPECT_EQ(idle_clock.readings(), 0u);
}

TEST(EnvironmentTest, PresetsSetExpectedFlags) {
  auto pending = stats::DurationDistribution::Deterministic(13.0);
  auto ideal = MakeIdealizedEnvironment(pending, 7);
  EXPECT_FALSE(ideal.charge_decision_wall_time);
  EXPECT_DOUBLE_EQ(ideal.creation_latency, 0.0);
  auto real = MakeRealEnvironment(pending, 7);
  EXPECT_TRUE(real.charge_decision_wall_time);
  EXPECT_GT(real.creation_latency, 0.0);
  EXPECT_GT(real.pending_jitter, 0.0);
}

TEST(MetricsTest, ComputesHeadlineNumbers) {
  SimulationResult result;
  result.horizon = 100.0;
  result.queries = {
      {1.0, 10.0, 0.0, 10.0, true, false},
      {2.0, 10.0, 5.0, 15.0, false, false},
      {3.0, 10.0, 13.0, 23.0, false, true},
      {4.0, 10.0, 0.0, 10.0, true, false},
  };
  result.instances = {{0.0, 1.0, 11.0, 11.0, true},
                      {0.0, 7.0, 17.0, 17.0, true}};
  auto m = ComputeMetrics(result);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->hit_rate, 0.5);
  EXPECT_DOUBLE_EQ(m->cold_start_rate, 0.25);
  EXPECT_DOUBLE_EQ(m->rt_avg, (10.0 + 15.0 + 23.0 + 10.0) / 4.0);
  EXPECT_DOUBLE_EQ(m->total_cost, 28.0);
  EXPECT_EQ(m->num_queries, 4u);
  EXPECT_DOUBLE_EQ(m->wait_avg, 4.5);
  EXPECT_DOUBLE_EQ(RelativeCost(*m, 14.0), 2.0);
}

TEST(MetricsTest, EmptyResultIsZeroes) {
  auto m = ComputeMetrics(SimulationResult{});
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->hit_rate, 0.0);
  EXPECT_EQ(m->num_queries, 0u);
}

TEST(MetricsTest, RtQuantilesOrdered) {
  SimulationResult result;
  for (int i = 1; i <= 1000; ++i) {
    QueryOutcome q;
    q.response_time = static_cast<double>(i);
    result.queries.push_back(q);
  }
  auto m = ComputeMetrics(result);
  ASSERT_TRUE(m.ok());
  EXPECT_LE(m->rt_p50, m->rt_p75);
  EXPECT_LE(m->rt_p75, m->rt_p95);
  EXPECT_LE(m->rt_p95, m->rt_p99);
  EXPECT_LE(m->rt_p99, m->rt_p999);
  EXPECT_NEAR(m->rt_p50, 500.0, 2.0);
  EXPECT_NEAR(m->rt_p99, 990.0, 2.0);
}

TEST(MetricsTest, WindowedVarianceOfConstantIsZero) {
  std::vector<double> v(500, 3.0);
  auto var = WindowedQosVariance(v, 50);
  ASSERT_TRUE(var.ok());
  EXPECT_DOUBLE_EQ(*var, 0.0);
}

TEST(MetricsTest, WindowedVarianceDetectsRegimeShift) {
  std::vector<double> v;
  for (int i = 0; i < 250; ++i) v.push_back(1.0);
  for (int i = 0; i < 250; ++i) v.push_back(9.0);
  auto var = WindowedQosVariance(v, 50);
  ASSERT_TRUE(var.ok());
  EXPECT_GT(*var, 10.0);
  EXPECT_FALSE(WindowedQosVariance(v, 0).ok());
}

TEST(MetricsTest, ExtractorsPreserveOrder) {
  SimulationResult result;
  result.queries = {{1.0, 1.0, 0.0, 5.0, true, false},
                    {2.0, 1.0, 0.0, 7.0, false, false}};
  auto rts = ResponseTimes(result);
  auto hits = HitIndicators(result);
  ASSERT_EQ(rts.size(), 2u);
  EXPECT_DOUBLE_EQ(rts[1], 7.0);
  EXPECT_DOUBLE_EQ(hits[0], 1.0);
  EXPECT_DOUBLE_EQ(hits[1], 0.0);
}

}  // namespace
}  // namespace rs::sim

// Golden digests of the Algorithm-1 event loop: every SimulationResult field
// of sim::Simulate, and the serving path's action stream, Snapshot()
// counters and SaveState bytes, over a strategy x engine-option matrix.
//
// The digests are FNV-1a over IEEE-754 bit patterns (plus counts and
// flags), so a one-ulp drift in any creation, ready, end or wait time fails
// here. They pin behaviour, not implementation: any restructuring of the
// event loop must leave every digest unchanged. If a change alters the
// dynamics on purpose, the failure message prints the new value to paste
// into kGolden below, and the change must say why it moved.
//
// The trace is built to reach the loop's edge cases: duplicate arrival
// timestamps (including at planning ticks), an arrival and a planning tick
// exactly at the closed horizon, creations scheduled in the past (clamped to
// now), cold starts that cancel a scheduled creation, and a scale-in that
// asks for more deletions than there are live instances.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "rs/api/api.hpp"
#include "rs/baselines/adaptive_backup_pool.hpp"
#include "rs/baselines/backup_pool.hpp"
#include "rs/core/extensions.hpp"
#include "rs/core/sequential_scaler.hpp"
#include "rs/persist/persist.hpp"
#include "rs/stats/rng.hpp"
#include "rs/workload/nhpp_sampler.hpp"

namespace rs {
namespace {

constexpr double kHorizon = 1200.0;
constexpr double kDt = 30.0;

/// FNV-1a 64 over a canonical little-endian byte stream.
class Digest {
 public:
  void Byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Bool(bool v) { Byte(v ? 1 : 0); }
  void Str(const std::string& s) {
    U64(s.size());
    for (const char c : s) Byte(static_cast<std::uint8_t>(c));
  }
  void Action(const sim::ScalingAction& action) {
    U64(action.creation_times.size());
    for (const double t : action.creation_times) F64(t);
    U64(action.deletions);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

workload::PiecewiseConstantIntensity SineIntensity(double horizon) {
  std::vector<double> rates;
  for (double t = 0.5 * kDt; t < horizon; t += kDt) {
    rates.push_back(0.45 + 0.3 * std::sin(2.0 * M_PI * t / 600.0));
  }
  return *workload::PiecewiseConstantIntensity::Make(rates, kDt);
}

/// The test trace: NHPP arrivals plus hand-placed edge cases.
workload::Trace ContractTrace() {
  stats::Rng rng(2026);
  const auto base = *workload::MakeTraceFromIntensity(
      &rng, SineIntensity(kHorizon),
      stats::DurationDistribution::Exponential(20.0));
  std::vector<workload::Query> queries = base.queries();
  // Duplicate every 17th timestamp (two queries at the same instant).
  const std::size_t n = queries.size();
  for (std::size_t i = 0; i < n; i += 17) {
    queries.push_back({queries[i].arrival_time, 3.0});
  }
  // A burst of three at a tick instant shared by every planning grid used
  // below (2, 5, 50 and 60 s all divide 600), and arrivals exactly at the
  // closed horizon, which is also on every grid.
  for (int k = 0; k < 3; ++k) queries.push_back({600.0, 5.0 + k});
  queries.push_back({kHorizon, 1.0});
  queries.push_back({kHorizon, 2.0});
  return workload::Trace(std::move(queries), kHorizon);
}

/// Deterministic strategy that stresses the loop: past-dated and duplicate
/// creation times, and scale-ins that exceed the live set.
class ScriptedStress : public sim::Autoscaler {
 public:
  const char* name() const override { return "contract-scripted"; }
  double planning_interval() const override { return 50.0; }
  double history_requirement() const override { return 0.0; }

  sim::ScalingAction Initialize(const sim::SimContext& ctx) override {
    return {.creation_times = {ctx.now, ctx.now + 3.0, ctx.now + 3.0},
            .deletions = 0};
  }
  sim::ScalingAction OnPlanningTick(const sim::SimContext& ctx) override {
    ++ticks_;
    if (ticks_ % 3 == 0) {
      // Over-delete: more than every live instance.
      return {.creation_times = {}, .deletions = ctx.instances_alive + 5};
    }
    return {.creation_times = {ctx.now - 10.0, ctx.now + 2.0, ctx.now + 2.0,
                               ctx.now + 20.0},
            .deletions = 0};
  }
  sim::ScalingAction OnQueryArrival(const sim::SimContext& ctx,
                                    bool cold_start) override {
    ++arrivals_;
    sim::ScalingAction action;
    if (cold_start) action.creation_times.push_back(ctx.now + 1.0);
    if (arrivals_ % 11 == 0) action.deletions = 1;
    if (arrivals_ % 13 == 0) action.creation_times.push_back(ctx.now);
    return action;
  }

  Status SerializeModel(persist::Writer* writer) const override {
    writer->WriteU64(ticks_);
    writer->WriteU64(arrivals_);
    return Status::OK();
  }
  Status DeserializeModel(persist::Reader* reader) override {
    RS_ASSIGN_OR_RETURN(ticks_, reader->ReadU64());
    RS_ASSIGN_OR_RETURN(arrivals_, reader->ReadU64());
    return Status::OK();
  }

 private:
  std::uint64_t ticks_ = 0;
  std::uint64_t arrivals_ = 0;
};

/// Pass-through wrapper that digests every context the loop hands the
/// strategy and every action it gets back.
class ContextDigest : public sim::Autoscaler {
 public:
  ContextDigest(sim::Autoscaler* inner, Digest* digest)
      : inner_(inner), digest_(digest) {}
  const char* name() const override { return inner_->name(); }
  double planning_interval() const override {
    return inner_->planning_interval();
  }
  double history_requirement() const override {
    return inner_->history_requirement();
  }
  sim::ScalingAction Initialize(const sim::SimContext& ctx) override {
    return Record(0, ctx, inner_->Initialize(ctx));
  }
  sim::ScalingAction OnPlanningTick(const sim::SimContext& ctx) override {
    return Record(1, ctx, inner_->OnPlanningTick(ctx));
  }
  sim::ScalingAction OnQueryArrival(const sim::SimContext& ctx,
                                    bool cold_start) override {
    digest_->Bool(cold_start);
    return Record(2, ctx, inner_->OnQueryArrival(ctx, cold_start));
  }

 private:
  sim::ScalingAction Record(std::uint8_t kind, const sim::SimContext& ctx,
                            sim::ScalingAction action) {
    digest_->Byte(kind);
    digest_->F64(ctx.now);
    digest_->U64(ctx.queries_arrived);
    digest_->U64(ctx.instances_alive);
    digest_->U64(ctx.instances_ready);
    digest_->U64(ctx.scheduled_creations);
    digest_->U64(ctx.arrival_history->size());
    if (!ctx.arrival_history->empty()) {
      digest_->F64(ctx.arrival_history->back());
    }
    digest_->Action(action);
    return action;
  }

  sim::Autoscaler* inner_;
  Digest* digest_;
};

// -- The matrix --------------------------------------------------------------

struct EngineCase {
  const char* name;
  std::function<sim::EngineOptions(sim::DecisionClock*)> make;
};

std::vector<EngineCase> EngineCases() {
  return {
      {"ideal", [](sim::DecisionClock*) { return sim::EngineOptions{}; }},
      {"stochastic",
       [](sim::DecisionClock*) {
         sim::EngineOptions o;
         o.pending = stats::DurationDistribution::LogNormal(13.0, 0.5);
         o.seed = 7;
         return o;
       }},
      {"latency_jitter",
       [](sim::DecisionClock*) {
         sim::EngineOptions o;
         o.creation_latency = 2.5;
         o.pending_jitter = 0.3;
         o.seed = 11;
         return o;
       }},
      {"charged",
       [](sim::DecisionClock* clock) {
         sim::EngineOptions o;
         o.charge_decision_wall_time = true;
         o.decision_clock = clock;
         return o;
       }},
  };
}

struct StrategyCase {
  const char* name;
  std::function<std::unique_ptr<sim::Autoscaler>()> make;
};

std::vector<StrategyCase> SimulateStrategies() {
  const auto pending = stats::DurationDistribution::Deterministic(13.0);
  return {
      {"BP", [] { return std::make_unique<baseline::BackupPool>(2); }},
      {"AdapBP",
       [] {
         return std::make_unique<baseline::AdaptiveBackupPool>(30.0, 60.0,
                                                               120.0);
       }},
      {"robust_hp",
       [pending] {
         core::SequentialScalerOptions o;
         o.alpha = 0.1;
         o.mc_samples = 64;
         o.planning_interval = 2.0;
         return std::make_unique<core::RobustScalerPolicy>(
             SineIntensity(kHorizon + 600.0), pending, o);
       }},
      {"NaiveBatch",
       [pending] {
         core::NaiveBatchOptions o;
         o.batch = 8;
         o.mc_samples = 64;
         return std::make_unique<core::NaiveBatchScaler>(
             SineIntensity(kHorizon + 600.0), pending, o);
       }},
      {"MeanRate",
       [pending] {
         core::MeanRateOptions o;
         o.planning_interval = 5.0;
         o.depth = 8;
         return std::make_unique<core::MeanRateScaler>(
             SineIntensity(kHorizon + 600.0), pending, o);
       }},
      {"scripted", [] { return std::make_unique<ScriptedStress>(); }},
  };
}

std::uint64_t SimulateDigest(const StrategyCase& strategy,
                             const EngineCase& engine) {
  const workload::Trace trace = ContractTrace();
  sim::FakeDecisionClock clock(0.25);
  auto inner = strategy.make();
  Digest digest;
  ContextDigest wrapped(inner.get(), &digest);
  auto result = sim::Simulate(trace, &wrapped, engine.make(&clock));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return 0;
  digest.F64(result->horizon);
  digest.U64(result->queries.size());
  for (const auto& q : result->queries) {
    digest.F64(q.arrival_time);
    digest.F64(q.processing_time);
    digest.F64(q.wait_time);
    digest.F64(q.response_time);
    digest.Bool(q.hit);
    digest.Bool(q.cold_start);
  }
  digest.U64(result->instances.size());
  for (const auto& inst : result->instances) {
    digest.F64(inst.creation_time);
    digest.F64(inst.ready_time);
    digest.F64(inst.end_time);
    digest.F64(inst.lifecycle_cost);
    digest.Bool(inst.served_query);
  }
  digest.U64(clock.readings());
  return digest.value();
}

// -- Serving -----------------------------------------------------------------

void RegisterScriptedStrategy() {
  static const bool registered = [] {
    const Status status = api::StrategyRegistry::Global().Register(
        "contract_scripted",
        [](const api::StrategySpec&, const api::StrategyContext&)
            -> Result<std::unique_ptr<sim::Autoscaler>> {
          return std::unique_ptr<sim::Autoscaler>(new ScriptedStress());
        });
    return status.ok();
  }();
  ASSERT_TRUE(registered);
}

struct ServingCase {
  const char* name;
  api::StrategySpec spec;
};

std::vector<ServingCase> ServingStrategies() {
  return {
      {"BP", {.name = "backup_pool", .params = {{"pool_size", 2.0}}}},
      {"AdapBP",
       {.name = "adaptive_backup_pool",
        .params = {{"multiplier", 30.0},
                   {"update_interval", 60.0},
                   {"estimate_window", 120.0}}}},
      {"robust_hp",
       {.name = "robust_hp",
        .params = {{"target", 0.9},
                   {"mc_samples", 64.0},
                   {"planning_interval", 2.0}}}},
      {"scripted", {.name = "contract_scripted", .params = {}}},
  };
}

void DigestSnapshot(const api::ServingSnapshot& s, Digest* d) {
  d->Bool(s.started);
  d->F64(s.now);
  d->U64(s.queries_observed);
  d->U64(s.instances_alive);
  d->U64(s.instances_ready);
  d->U64(s.scheduled_creations);
  d->U64(s.cold_starts);
  d->U64(s.creations_requested);
  d->U64(s.deletions_requested);
  d->U64(s.planning_rounds);
  d->Str(s.strategy);
  d->F64(s.history_retention);
  d->U64(s.arrivals_retained);
  d->U64(s.actions_retained);
}

void DigestState(const api::Scaler& scaler, Digest* d) {
  std::ostringstream out;
  ASSERT_TRUE(scaler.SaveState(out).ok());
  d->Str(out.str());
}

/// Runs one serving session; `*cancels` counts the arrivals that told the
/// caller to cancel an already-drained creation.
std::uint64_t ServingDigest(const ServingCase& strategy,
                            const EngineCase& engine, std::size_t* cancels) {
  RegisterScriptedStrategy();
  // A short training window: the forecast only has to cover the serving
  // horizon, and the digest pins what the loop does with it.
  stats::Rng rng(99);
  const auto train = *workload::MakeTraceFromIntensity(
      &rng, SineIntensity(3600.0),
      stats::DurationDistribution::Exponential(20.0));
  auto scaler = api::ScalerBuilder()
                    .WithTrace(train)
                    .WithBinWidth(kDt)
                    .WithForecastHorizon(kHorizon + 600.0)
                    .WithStrategy(strategy.spec)
                    .Build();
  EXPECT_TRUE(scaler.ok()) << scaler.status().ToString();
  if (!scaler.ok()) return 0;
  sim::FakeDecisionClock clock(0.25);
  EXPECT_TRUE(scaler->ConfigureServing(engine.make(&clock)).ok());

  const workload::Trace trace = ContractTrace();
  const auto& queries = trace.queries();
  Digest d;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double x = queries[i].arrival_time;
    auto outcome = scaler->Observe(x);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) return 0;
    d.Bool(outcome->cold_start);
    d.Bool(outcome->cancel_earliest_scheduled);
    if (outcome->cancel_earliest_scheduled) ++*cancels;
    // Drain every fifth arrival, so the buffer holds undrained creations
    // that cold starts must retract and drained ones they must cancel.
    if (i % 5 == 4) {
      auto plan = scaler->Plan(x);
      EXPECT_TRUE(plan.ok());
      if (plan.ok()) d.Action(*plan);
    }
    if (i == queries.size() / 3 || i == 2 * queries.size() / 3) {
      DigestSnapshot(scaler->Snapshot(), &d);
      DigestState(*scaler, &d);
    }
  }
  auto last = scaler->Plan(trace.horizon());
  EXPECT_TRUE(last.ok());
  if (last.ok()) d.Action(*last);
  DigestSnapshot(scaler->Snapshot(), &d);
  DigestState(*scaler, &d);
  d.U64(clock.readings());
  return d.value();
}

// -- Golden values (measured before the event loop was unified) --------------

struct Golden {
  const char* key;
  std::uint64_t digest;
};

const Golden kGolden[] = {
    {"simulate/BP/ideal", 0x7686e1f2d8f8120eULL},
    {"simulate/BP/stochastic", 0x0acc740f42352868ULL},
    {"simulate/BP/latency_jitter", 0x7dc8d8e5a056158cULL},
    {"simulate/BP/charged", 0x7686e1f2d8f8120eULL},
    {"simulate/AdapBP/ideal", 0x88e2bc762fe2a996ULL},
    {"simulate/AdapBP/stochastic", 0x6a65b527cfd29bb2ULL},
    {"simulate/AdapBP/latency_jitter", 0xc09026225bd85955ULL},
    {"simulate/AdapBP/charged", 0xc269ba449aaa033dULL},
    {"simulate/robust_hp/ideal", 0x06516fa89d86b481ULL},
    {"simulate/robust_hp/stochastic", 0xe2da4a9d35f67452ULL},
    {"simulate/robust_hp/latency_jitter", 0x5c4356687f0f9dfdULL},
    {"simulate/robust_hp/charged", 0xb9361d840ffa97c1ULL},
    {"simulate/NaiveBatch/ideal", 0xa3573f1b432efbd7ULL},
    {"simulate/NaiveBatch/stochastic", 0xc3f92b27a8510530ULL},
    {"simulate/NaiveBatch/latency_jitter", 0x5bd62bc5820e0ea2ULL},
    {"simulate/NaiveBatch/charged", 0xa3573f1b432efbd7ULL},
    {"simulate/MeanRate/ideal", 0x6ddb71bb45005589ULL},
    {"simulate/MeanRate/stochastic", 0xae73a7091c97d990ULL},
    {"simulate/MeanRate/latency_jitter", 0x482e4f9c2703d8aeULL},
    {"simulate/MeanRate/charged", 0x34b3fe7614fde4b4ULL},
    {"simulate/scripted/ideal", 0xa11334fd5161f5f9ULL},
    {"simulate/scripted/stochastic", 0x5a0dc25b9ec30e35ULL},
    {"simulate/scripted/latency_jitter", 0x5b13ca40833dae4eULL},
    {"simulate/scripted/charged", 0x9583faeaf390b633ULL},
    {"serving/BP/ideal", 0x44d5dc62ac888d75ULL},
    {"serving/BP/stochastic", 0x8654d0a050a7b76cULL},
    {"serving/BP/latency_jitter", 0xa571c7122cbe9408ULL},
    {"serving/BP/charged", 0x8e306a0482e11570ULL},
    {"serving/AdapBP/ideal", 0x4c67decd5ed3a9a6ULL},
    {"serving/AdapBP/stochastic", 0x846f5c12ee42fa89ULL},
    {"serving/AdapBP/latency_jitter", 0x203cc516d929b442ULL},
    {"serving/AdapBP/charged", 0x6bb0719e04b11235ULL},
    {"serving/robust_hp/ideal", 0xee44003bc69a9b46ULL},
    {"serving/robust_hp/stochastic", 0x7cafa287b7f36a4dULL},
    {"serving/robust_hp/latency_jitter", 0xda474a5e7fa16e33ULL},
    {"serving/robust_hp/charged", 0x7f2ccaf26cc6a81cULL},
    {"serving/scripted/ideal", 0x7ab72756f2dad42aULL},
    {"serving/scripted/stochastic", 0xd3aeac9713ad0065ULL},
    {"serving/scripted/latency_jitter", 0x5b798c82848ba497ULL},
    {"serving/scripted/charged", 0x0c0a4e774a9eeceaULL},
};

std::uint64_t GoldenFor(const std::string& key) {
  for (const auto& g : kGolden) {
    if (key == g.key) return g.digest;
  }
  return 0;
}

void ExpectGolden(const std::string& key, std::uint64_t actual) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llxULL",
                static_cast<unsigned long long>(actual));
  EXPECT_EQ(actual, GoldenFor(key))
      << "digest moved for " << key << "; new value: {\"" << key << "\", "
      << hex << "},";
}

TEST(EngineContractTest, SimulateResultDigestsMatchGolden) {
  for (const auto& strategy : SimulateStrategies()) {
    for (const auto& engine : EngineCases()) {
      ExpectGolden(std::string("simulate/") + strategy.name + "/" +
                       engine.name,
                   SimulateDigest(strategy, engine));
    }
  }
}

TEST(EngineContractTest, ServingStreamDigestsMatchGolden) {
  std::size_t cancels = 0;
  for (const auto& strategy : ServingStrategies()) {
    for (const auto& engine : EngineCases()) {
      ExpectGolden(std::string("serving/") + strategy.name + "/" +
                       engine.name,
                   ServingDigest(strategy, engine, &cancels));
    }
  }
  // The matrix reaches the caller-side cancellation path, not only the
  // silent retraction of undrained creations.
  EXPECT_GT(cancels, 0u);
}

TEST(EngineContractTest, TraceReachesTheEdgeCases) {
  // Guards the digests' coverage: the trace must keep its duplicate
  // timestamps and its arrivals exactly at the horizon.
  const workload::Trace trace = ContractTrace();
  std::size_t duplicates = 0, at_horizon = 0;
  const auto& q = trace.queries();
  for (std::size_t i = 1; i < q.size(); ++i) {
    if (q[i].arrival_time == q[i - 1].arrival_time) ++duplicates;
  }
  for (const auto& query : q) {
    if (query.arrival_time == trace.horizon()) ++at_horizon;
  }
  EXPECT_GE(duplicates, 5u);
  EXPECT_EQ(at_horizon, 2u);

  // The scripted strategy really asks for more deletions than exist.
  ScriptedStress stress;
  sim::SimContext ctx;
  std::vector<double> history;
  ctx.arrival_history = &history;
  ctx.instances_alive = 4;
  stress.OnPlanningTick(ctx);
  stress.OnPlanningTick(ctx);
  EXPECT_GT(stress.OnPlanningTick(ctx).deletions, ctx.instances_alive);
}

}  // namespace
}  // namespace rs

// Golden digests of the Algorithm-1 event loop: every SimulationResult field
// of sim::Simulate, and the serving path's action stream, Snapshot()
// counters and SaveState bytes, over a strategy x engine-option matrix.
// The fleet cases at the end pin api::ScalerFleet the same way: PlanAll
// results, Health() and Freshness() of every tenant, FleetSnapshot counters
// and SaveFleet bytes over a scripted multi-tenant scenario.
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

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rs/api/api.hpp"
#include "rs/baselines/adaptive_backup_pool.hpp"
#include "rs/baselines/backup_pool.hpp"
#include "rs/core/extensions.hpp"
#include "rs/core/sequential_scaler.hpp"
#include "rs/fault/fault.hpp"
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

// -- Golden values (measured before the event loop was unified; the fleet
// values before the fleet's per-tenant records were reshaped) -------------
//
// The fleet stream and restart digests include planning_workspace_bytes.
// They were re-pinned once, when the small-array sorting network's
// comparator list joined that count; every other digested byte, and the
// saves digests, stayed as pinned.

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
    {"fleet/clean/stream", 0xfdfb27cc0b824bafULL},
    {"fleet/clean/saves", 0x878a0c6a4be16776ULL},
    {"fleet/clean/restart", 0x652b1f7af1203280ULL},
    {"fleet/faults/stream", 0xe7e2f19cfb872f28ULL},
    {"fleet/faults/saves", 0x4cdbcbf4ecbc9281ULL},
    {"fleet/faults/restart", 0x182e78399fe03ac2ULL},
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


// -- Fleet -------------------------------------------------------------------
//
// One scripted ScalerFleet session: seven tenants, freshness on with inline
// retrains, and every per-tenant record the fleet keeps driven through a
// state change. "shift" changes regime (4x) so its detector latches, a
// retrain runs and the refit model swaps in; "manual" gets a ReplaceModel
// and "adapt" a ReplaceModelAtNextPlan; "forced" gets two RequestRetrain
// calls, the first of which fails in train.refit under a retrain backoff;
// "flaky" fails fleet.plan until its breaker trips, fails its first probe
// and recovers on the second; "mover" migrates to a second fleet without
// freshness and back; "steady" and "adapt" each refuse one Observe. The
// digests cover every PlanAll result, Health() and Freshness() of every
// tenant at every boundary, FleetSnapshot counters, SaveFleet bytes at
// three cuts, and the continuation of a LoadFleet + EnableFreshness
// restart from the middle cut. They must not depend on the worker count.

constexpr double kFleetServe = 1200.0;
constexpr double kFleetTick = 5.0;
constexpr double kFleetPeriod = 600.0;
constexpr double kFleetCuts[] = {300.0, 600.0, 1000.0};
constexpr double kFleetRestartCut = 600.0;

workload::Trace FleetTrace(std::uint64_t seed, double horizon, double qps,
                           double shift_at) {
  std::vector<double> rates;
  for (double t = 0.5 * kDt; t < horizon; t += kDt) {
    double rate = qps * (1.0 + 0.4 * std::sin(2.0 * M_PI * t / kFleetPeriod));
    if (shift_at >= 0.0 && t >= shift_at) rate *= 4.0;
    rates.push_back(rate);
  }
  stats::Rng rng(seed);
  return *workload::MakeTraceFromIntensity(
      &rng, *workload::PiecewiseConstantIntensity::Make(rates, kDt),
      stats::DurationDistribution::Exponential(15.0));
}

api::Scaler FleetScaler(std::uint64_t seed, const char* spec) {
  const auto train = FleetTrace(seed, 4.0 * kFleetPeriod, 0.5, -1.0);
  auto scaler = api::ScalerBuilder()
                    .WithTrace(train)
                    .WithBinWidth(kDt)
                    .WithForecastHorizon(kFleetServe + 600.0)
                    .WithStrategy(*api::ParseStrategySpec(spec))
                    .WithPlanningInterval(kFleetTick)
                    .WithMcSamples(40)
                    .Build();
  EXPECT_TRUE(scaler.ok()) << scaler.status().ToString();
  return std::move(scaler).ValueOrDie();
}

struct FleetTenantCase {
  const char* name;
  const char* spec;
  std::uint64_t train_seed;
  double qps;
  double shift_at;  ///< Serving time of the 4x regime change (-1: none).
};

const FleetTenantCase kFleetTenants[] = {
    {"shift", "robust_hp:target=0.9", 101, 1.0, 400.0},
    {"steady", "backup_pool", 102, 0.5, -1.0},
    {"adapt", "adaptive_backup_pool", 103, 0.5, -1.0},
    {"manual", "robust_rt", 104, 0.5, -1.0},
    {"flaky", "robust_hp:target=0.9", 105, 0.5, -1.0},
    {"forced", "backup_pool", 106, 0.5, -1.0},
    {"mover", "robust_cost", 107, 0.5, -1.0},  // Registered after freshness.
};

api::RobustnessPolicy FleetRobustness() {
  api::RobustnessPolicy policy;
  policy.breaker_threshold = 3;
  policy.backoff_base = 10.0;
  policy.backoff_max = 100.0;
  policy.retrain_backoff_base = 100.0;
  policy.retrain_backoff_max = 400.0;
  return policy;
}

api::FreshnessPolicy FleetFreshness() {
  api::FreshnessPolicy policy;
  policy.pipeline.dt = kDt;
  policy.pipeline.forecast_horizon = kFleetServe;
  policy.min_retrain_interval = 60.0;
  policy.retrain_workers = 0;
  return policy;
}

fault::FaultPlan FleetFaultPlan() {
  fault::FaultPlan plan;
  // fleet.plan hits of "flaky": 40-42 trip the breaker (threshold 3), 43 is
  // the first half-open probe (re-opens with a doubled backoff), 44 is the
  // probe that recovers.
  for (std::uint64_t hit = 40; hit <= 43; ++hit) {
    fault::FaultRule rule;
    rule.site = "fleet.plan";
    rule.scope = "flaky";
    rule.hit = hit;
    plan.rules.push_back(std::move(rule));
  }
  fault::FaultRule refit;
  refit.site = "train.refit";
  refit.scope = "forced";
  refit.hit = 1;
  plan.rules.push_back(std::move(refit));
  return plan;
}

void DigestStatus(const Status& status, Digest* d) {
  d->Byte(static_cast<std::uint8_t>(status.code()));
  d->Str(status.message());
}

void DigestPlans(const std::vector<api::ScalerFleet::TenantPlan>& plans,
                 Digest* d) {
  d->U64(plans.size());
  for (const auto& plan : plans) {
    d->Str(plan.tenant);
    DigestStatus(plan.status, d);
    d->Bool(plan.degraded);
    d->Action(plan.action);
  }
}

void DigestHealth(const api::TenantHealthInfo& h, Digest* d) {
  d->Byte(static_cast<std::uint8_t>(h.health));
  d->U64(h.consecutive_plan_failures);
  d->U64(h.plan_failures);
  d->U64(h.fallbacks_served);
  d->U64(h.rejected_observations);
  d->U64(h.breaker_opens);
  d->U64(h.probes);
  d->U64(h.deadline_overruns);
  d->U64(h.consecutive_retrain_failures);
  d->U64(h.freshness_errors);
  d->F64(h.retry_at);
  d->F64(h.retrain_retry_at);
  DigestStatus(h.last_error, d);
}

void DigestTenants(const api::ScalerFleet& fleet, Digest* d) {
  for (const auto& name : fleet.Tenants()) {
    d->Str(name);
    auto health = fleet.Health(name);
    EXPECT_TRUE(health.ok()) << health.status().ToString();
    if (health.ok()) DigestHealth(*health, d);
    auto f = fleet.Freshness(name);
    EXPECT_TRUE(f.ok()) << f.status().ToString();
    if (!f.ok()) continue;
    d->Bool(f->enabled);
    d->Byte(static_cast<std::uint8_t>(f->drift));
    d->F64(f->drift_time);
    d->Bool(f->retrain_inflight);
    d->U64(f->drift_events);
    d->U64(f->retrains_completed);
    d->U64(f->retrain_failures);
    d->U64(f->swaps_applied);
    d->F64(f->last_swap_time);
    d->F64(f->model_origin);
    d->F64(f->window_end);
  }
}

void DigestFleetSnapshot(const api::FleetSnapshot& s, Digest* d) {
  d->U64(s.tenants);
  d->U64(s.tenants_started);
  d->U64(s.queries_observed);
  d->U64(s.instances_alive);
  d->U64(s.instances_ready);
  d->U64(s.scheduled_creations);
  d->U64(s.cold_starts);
  d->U64(s.creations_requested);
  d->U64(s.deletions_requested);
  d->U64(s.planning_rounds);
  d->U64(s.arrivals_retained);
  d->U64(s.actions_retained);
  d->U64(s.planning_workspace_bytes);
  d->U64(s.tenants_healthy);
  d->U64(s.tenants_degraded);
  d->U64(s.tenants_quarantined);
  d->U64(s.rejected_observations);
  d->U64(s.plan_failures);
  d->U64(s.fallbacks_served);
  d->U64(s.breaker_opens);
  for (const auto& [name, snap] : s.per_tenant) {
    d->Str(name);
    DigestSnapshot(snap, d);
  }
  for (const auto& [name, health] : s.per_tenant_health) {
    d->Str(name);
    DigestHealth(health, d);
  }
}

/// Arrival events of every tenant, merged in time order.
std::vector<std::pair<double, std::string>> FleetEvents() {
  std::vector<std::pair<double, std::string>> events;
  std::uint64_t seed = 201;
  for (const auto& tenant : kFleetTenants) {
    const auto trace =
        FleetTrace(seed++, kFleetServe, tenant.qps, tenant.shift_at);
    for (const double t : trace.ArrivalTimes()) {
      events.emplace_back(t, tenant.name);
    }
  }
  std::sort(events.begin(), events.end());
  return events;
}

void ObserveInto(api::ScalerFleet* fleet, const std::string& tenant, double t,
                 Digest* d) {
  auto outcome = fleet->Observe(tenant, t);
  d->Bool(outcome.ok());
  if (outcome.ok()) {
    d->Bool(outcome->cold_start);
    d->Bool(outcome->cancel_earliest_scheduled);
  } else {
    DigestStatus(outcome.status(), d);
  }
}

struct FleetDigests {
  std::uint64_t stream = 0;
  std::uint64_t saves = 0;
  std::uint64_t restart = 0;
  /// Final Health() and Freshness() of every tenant of the main fleet, for
  /// the coverage check.
  std::map<std::string, std::pair<api::TenantHealthInfo, api::TenantFreshness>>
      final_state;
};

FleetDigests FleetScenarioDigests(std::size_t workers, bool faults) {
  const auto events = FleetEvents();
  api::ScalerFleet fleet(workers);
  api::ScalerFleet aside(workers);  // Where "mover" spends the middle third.
  fleet.ConfigureRobustness(FleetRobustness());
  aside.ConfigureRobustness(FleetRobustness());
  for (const auto& tenant : kFleetTenants) {
    if (std::string(tenant.name) == "mover") {
      // The loop attaches to the first six here and to "mover" at Register.
      EXPECT_TRUE(fleet.EnableFreshness(FleetFreshness()).ok());
    }
    EXPECT_TRUE(
        fleet.Register(tenant.name, FleetScaler(tenant.train_seed, tenant.spec))
            .ok());
  }
  std::optional<fault::ScopedFaultInjection> inject;
  if (faults) inject.emplace(FleetFaultPlan());

  Digest stream, saves;
  std::string restart_bytes;
  bool mover_aside = false;
  std::size_t next = 0;
  const auto steps = static_cast<int>(kFleetServe / kFleetTick);
  for (int k = 1; k <= steps; ++k) {
    const double now = k * kFleetTick;
    for (; next < events.size() && events[next].first < now; ++next) {
      const auto& [t, tenant] = events[next];
      const bool away = mover_aside && tenant == "mover";
      ObserveInto(away ? &aside : &fleet, tenant, t, &stream);
    }
    if (now == 100.0) {
      ObserveInto(&fleet, "steady", std::nan(""), &stream);
      ObserveInto(&fleet, "adapt", 1.0, &stream);  // Regressive.
    } else if (now == 250.0) {
      DigestStatus(fleet.ReplaceModel("manual", FleetScaler(111, "robust_rt")),
                   &stream);
    } else if (now == 300.0 || now == 700.0) {
      DigestStatus(fleet.RequestRetrain("forced"), &stream);
    } else if (now == 450.0) {
      DigestStatus(fleet.ReplaceModelAtNextPlan(
                       "adapt", FleetScaler(113, "adaptive_backup_pool")),
                   &stream);
    } else if (now == 500.0) {
      DigestStatus(fleet.MigrateTenant("mover", &aside), &stream);
      mover_aside = true;
    } else if (now == 800.0) {
      DigestStatus(aside.MigrateTenant("mover", &fleet), &stream);
      mover_aside = false;
    }
    DigestPlans(fleet.PlanAll(now), &stream);
    DigestPlans(aside.PlanAll(now), &stream);
    DigestTenants(fleet, &stream);
    DigestTenants(aside, &stream);
    if (k % 20 == 0) DigestFleetSnapshot(fleet.Snapshot(), &stream);
    for (const double cut : kFleetCuts) {
      if (now != cut) continue;
      std::ostringstream out;
      EXPECT_TRUE(fleet.SaveFleet(out).ok());
      saves.Str(out.str());
      if (cut == kFleetRestartCut) restart_bytes = out.str();
    }
  }
  inject.reset();
  DigestFleetSnapshot(fleet.Snapshot(), &stream);
  DigestFleetSnapshot(aside.Snapshot(), &stream);

  // The restart path: LoadFleet + EnableFreshness at the middle cut, then
  // the rest of the arrivals of every tenant the cut holds.
  Digest restart;
  std::istringstream in(restart_bytes);
  api::FleetRestoreOptions options;
  options.worker_threads = workers;
  auto loaded = api::ScalerFleet::LoadFleet(in, options);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (loaded.ok()) {
    EXPECT_TRUE(loaded->EnableFreshness(FleetFreshness()).ok());
    std::size_t i = 0;
    while (i < events.size() && events[i].first < kFleetRestartCut) ++i;
    for (int k = static_cast<int>(kFleetRestartCut / kFleetTick) + 1;
         k <= steps; ++k) {
      const double now = k * kFleetTick;
      for (; i < events.size() && events[i].first < now; ++i) {
        const auto& [t, tenant] = events[i];
        if (loaded->Find(tenant) != nullptr) {
          ObserveInto(&*loaded, tenant, t, &restart);
        }
      }
      DigestPlans(loaded->PlanAll(now), &restart);
      DigestTenants(*loaded, &restart);
    }
    DigestFleetSnapshot(loaded->Snapshot(), &restart);
    std::ostringstream out;
    EXPECT_TRUE(loaded->SaveFleet(out).ok());
    restart.Str(out.str());
  }
  FleetDigests digests;
  digests.stream = stream.value();
  digests.saves = saves.value();
  digests.restart = restart.value();
  for (const auto& name : fleet.Tenants()) {
    digests.final_state[name] = {*fleet.Health(name), *fleet.Freshness(name)};
  }
  return digests;
}

void ExpectFleetGolden(const char* variant, bool faults) {
  for (const std::size_t workers : {0u, 1u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const FleetDigests digests = FleetScenarioDigests(workers, faults);
    const std::string prefix = std::string("fleet/") + variant + "/";
    ExpectGolden(prefix + "stream", digests.stream);
    ExpectGolden(prefix + "saves", digests.saves);
    ExpectGolden(prefix + "restart", digests.restart);
  }
}

TEST(EngineContractTest, FleetDigestsMatchGolden) {
  ExpectFleetGolden("clean", /*faults=*/false);
}

TEST(EngineContractTest, FleetDigestsWithFaultsMatchGolden) {
#if defined(RS_NO_FAULT_INJECTION)
  GTEST_SKIP() << "needs the fleet.plan and train.refit fault sites";
#else
  ExpectFleetGolden("faults", /*faults=*/true);
#endif
}

TEST(EngineContractTest, FleetScenarioReachesEveryRecord) {
  // Guards the fleet digests' coverage: each scripted event really moved
  // the record it is meant to move.
#if defined(RS_NO_FAULT_INJECTION)
  GTEST_SKIP() << "needs the fleet.plan and train.refit fault sites";
#else
  const FleetDigests digests = FleetScenarioDigests(0, /*faults=*/true);
  const auto& state = digests.final_state;
  ASSERT_EQ(state.size(), 7u);
  const auto& shift = state.at("shift").second;
  EXPECT_TRUE(shift.enabled);
  EXPECT_GE(shift.drift_events, 1u);
  EXPECT_GE(shift.retrains_completed, 1u);
  EXPECT_GT(shift.model_origin, 0.0) << "a background swap moves the origin";
  EXPECT_GE(state.at("manual").second.swaps_applied, 1u);
  EXPECT_EQ(state.at("adapt").second.swaps_applied, 1u);
  EXPECT_EQ(state.at("adapt").first.rejected_observations, 1u);
  EXPECT_EQ(state.at("steady").first.rejected_observations, 1u);
  const auto& forced = state.at("forced");
  EXPECT_EQ(forced.second.retrain_failures, 1u);
  EXPECT_EQ(forced.second.retrains_completed, 1u);
  EXPECT_EQ(forced.first.consecutive_retrain_failures, 0u);
  const auto& flaky = state.at("flaky").first;
  EXPECT_EQ(flaky.plan_failures, 4u);
  EXPECT_EQ(flaky.breaker_opens, 2u);
  EXPECT_EQ(flaky.probes, 2u);
  EXPECT_EQ(flaky.health, api::TenantHealth::kHealthy);
  EXPECT_TRUE(state.at("mover").second.enabled) << "migrated back and rebound";
#endif
}

}  // namespace
}  // namespace rs

/// \file bench_common.hpp
/// \brief Shared scaffolding for the per-figure/per-table bench harnesses:
///        the three paper trace scenarios with their train/test splits, a
///        one-call "train pipeline and replay strategy" runner, and row
///        printing. Every harness prints the same rows/series the paper's
///        corresponding figure or table reports (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rs/api/api.hpp"
#include "rs/common/logging.hpp"

namespace rs::bench {

/// One paper trace scenario: a train/test split plus its pipeline knobs.
struct Scenario {
  std::string name;
  workload::Trace train;
  workload::Trace test;
  stats::DurationDistribution pending =
      stats::DurationDistribution::Deterministic(13.0);
  double dt = 60.0;                   ///< Model bin width for this trace.
  std::size_t aggregate_factor = 1;   ///< Periodicity-detection aggregation.
  double reactive_cost = 0.0;         ///< Total cost of BP(B=0) on `test`.
};

/// RobustScaler planning interval used by the trace replays. The paper uses
/// Δ = 1 s; we default to 5 s to keep every bench binary in seconds (the
/// Fig. 10(d) harness sweeps Δ explicitly). Documented in EXPERIMENTS.md.
inline constexpr double kPlanningInterval = 5.0;

/// Monte Carlo samples per decision in trace replays (paper: 1000 for the
/// scalability study; decisions stabilize well before that).
inline constexpr std::size_t kMcSamples = 300;

inline sim::EngineOptions EngineFor(const Scenario& scenario,
                                    std::uint64_t seed = 20220414) {
  sim::EngineOptions opts;
  opts.pending = scenario.pending;
  opts.seed = seed;
  return opts;
}

inline sim::Metrics MustMetrics(const Result<sim::SimulationResult>& result) {
  RS_CHECK(result.ok()) << result.status().ToString();
  auto metrics = sim::ComputeMetrics(*result);
  RS_CHECK(metrics.ok()) << metrics.status().ToString();
  return *metrics;
}

/// Replays `strategy` on the scenario's test trace.
inline sim::Metrics RunStrategy(const Scenario& scenario,
                                sim::Autoscaler* strategy,
                                std::uint64_t seed = 20220414) {
  return MustMetrics(sim::Simulate(scenario.test, strategy,
                                   EngineFor(scenario, seed)));
}

/// Registry lookup that aborts on configuration errors (bench harnesses
/// treat a bad spec as a programming bug, not a recoverable condition).
inline std::unique_ptr<sim::Autoscaler> MakeNamedStrategy(
    const api::StrategySpec& spec, const api::StrategyContext& context = {}) {
  auto strategy = api::MakeStrategy(spec, context);
  RS_CHECK(strategy.ok()) << strategy.status().ToString();
  return std::move(strategy).ValueOrDie();
}

/// Fills scenario.reactive_cost with the BP(B=0) reference (paper metric
/// "relative cost"). Selected through the registry like every other
/// strategy in the harnesses.
inline void ComputeReactiveReference(Scenario* scenario) {
  auto reactive = MakeNamedStrategy({.name = "backup_pool", .params = {}});
  scenario->reactive_cost = RunStrategy(*scenario, reactive.get()).total_cost;
}

inline Scenario MakeCrsScenario() {
  auto synth = workload::MakeCrsLikeTrace();
  RS_CHECK(synth.ok()) << synth.status().ToString();
  Scenario s;
  s.name = "CRS";
  // Paper split: first 3 weeks train, last week test.
  auto split = synth->trace.SplitAt(3.0 * 7.0 * 86400.0);
  s.train = std::move(split.first);
  s.test = std::move(split.second);
  s.pending = synth->pending;
  s.dt = 600.0;  // 10-min bins keep the weekly/daily band tractable.
  s.aggregate_factor = 6;
  ComputeReactiveReference(&s);
  return s;
}

inline Scenario MakeGoogleScenario() {
  auto synth = workload::MakeGoogleLikeTrace();
  RS_CHECK(synth.ok()) << synth.status().ToString();
  Scenario s;
  s.name = "Google";
  // Paper split: first 18 h train, last 6 h test.
  auto split = synth->trace.SplitAt(18.0 * 3600.0);
  s.train = std::move(split.first);
  s.test = std::move(split.second);
  s.pending = synth->pending;
  s.dt = 60.0;
  s.aggregate_factor = 5;
  ComputeReactiveReference(&s);
  return s;
}

inline Scenario MakeAlibabaScenario() {
  auto synth = workload::MakeAlibabaLikeTrace();
  RS_CHECK(synth.ok()) << synth.status().ToString();
  Scenario s;
  s.name = "Alibaba";
  // Paper split: first 4 days train, last day test.
  auto split = synth->trace.SplitAt(4.0 * 86400.0);
  s.train = std::move(split.first);
  s.test = std::move(split.second);
  s.pending = synth->pending;
  // 5-min bins: the daily period is 288 bins (sharp ACF peak) and the fit
  // stays small (T = 1152 for the 4 training days).
  s.dt = 300.0;
  s.aggregate_factor = 1;
  ComputeReactiveReference(&s);
  return s;
}

/// Trains the RobustScaler pipeline on the scenario's training window (the
/// facade's shared-training path: one fit feeds every strategy sweep).
inline core::TrainedPipeline TrainOn(const Scenario& scenario) {
  core::PipelineOptions options;
  options.dt = scenario.dt;
  options.periodicity.aggregate_factor = scenario.aggregate_factor;
  options.forecast_horizon = scenario.test.horizon();
  auto trained = api::TrainPipeline(scenario.train, options);
  RS_CHECK(trained.ok()) << trained.status().ToString();
  return std::move(trained).ValueOrDie();
}

/// Builds a RobustScaler policy from a trained pipeline for one variant and
/// target through the strategy registry — the single place that interprets
/// target semantics (HP → hitting probability 1−α, RT → waiting-time budget
/// d − µs in seconds, cost → idle budget in seconds).
inline std::unique_ptr<sim::Autoscaler> MakeVariantPolicy(
    const core::TrainedPipeline& trained, const Scenario& scenario,
    core::ScalerVariant variant, double target,
    double planning_interval = kPlanningInterval) {
  api::StrategyContext context;
  context.forecast = &trained.forecast;
  context.pending = scenario.pending;
  context.mc_samples = kMcSamples;
  context.planning_interval = planning_interval;
  auto policy = api::MakeStrategy(
      {.name = api::StrategyNameFor(variant), .params = {{"target", target}}},
      context);
  RS_CHECK(policy.ok()) << policy.status().ToString();
  return std::move(policy).ValueOrDie();
}

/// Parses a comma-separated list of non-negative integers (e.g. a
/// `--workers=0,1,8` value), aborting with the offending token on anything
/// malformed — bench arguments are programmer input, not user data.
inline std::vector<std::size_t> ParseSizeList(const std::string& list) {
  std::vector<std::size_t> out;
  for (std::size_t pos = 0; pos <= list.size();) {
    std::size_t end = list.find(',', pos);
    if (end == std::string::npos) end = list.size();
    const std::string token = list.substr(pos, end - pos);
    RS_CHECK(!token.empty() &&
             token.find_first_not_of("0123456789") == std::string::npos)
        << "bad list token: '" << token << "' in '" << list << "'";
    out.push_back(static_cast<std::size_t>(std::stoul(token)));
    pos = end + 1;
  }
  return out;
}

/// Reads the optional `--json=<path>` flag of a harness whose only argument
/// it is (empty when absent); any other argument aborts with usage.
inline std::string JsonPathArg(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    RS_CHECK(arg.rfind("--json=", 0) == 0)
        << "unknown argument: " << arg << " (usage: " << argv[0]
        << " [--json=<path>])";
    path = arg.substr(7);
  }
  return path;
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

inline void PrintParetoHeader() {
  std::printf("%-22s %12s %10s %10s %10s\n", "strategy", "parameter",
              "hit_rate", "rt_avg", "rel_cost");
}

inline void PrintParetoRow(const std::string& strategy, double parameter,
                           const sim::Metrics& m, double reactive_cost) {
  std::printf("%-22s %12.4g %10.4f %10.2f %10.3f\n", strategy.c_str(),
              parameter, m.hit_rate, m.rt_avg,
              sim::RelativeCost(m, reactive_cost));
}

}  // namespace rs::bench

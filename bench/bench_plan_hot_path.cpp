// Planning hot-path throughput: decisions/sec and ns/decision for one
// RobustScaler Plan(t) round, the optimized round the policy runs vs the
// core::RunReferenceRound oracle, across Monte Carlo sample counts R and
// decision variants. Each side of a row is timed as the fastest of kPasses
// passes over the same round schedule, the two sides alternating: one pass
// at R = 20 takes about 2 ms, too short to outlast the machine's noise on
// its own.
//
// The harness is also the parity proof the optimization rests on: it runs
// the policy's own round schedule through both entry points under a fixed
// seed and aborts unless the two emit byte-identical action sequences, and
// it trains the same pipeline under 0/1/8 workers and aborts unless the
// fitted forecasts are byte-identical.
//
// Usage:
//   bench_plan_hot_path [--mc=100,1000,10000] [--rounds=50] [--qps=2]
//                       [--variants=hp,rt,cost] [--workers=0,1,8]
//                       [--seed=20260730] [--json=BENCH_plan.json]
//
// A planner runs serially on its calling thread; fleets parallelise across
// tenants (bench_fleet_scaling measures that).
//
// See EXPERIMENTS.md ("Performance methodology") for the JSON schema.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "rs/api/api.hpp"
#include "rs/common/logging.hpp"
#include "rs/common/stopwatch.hpp"
#include "rs/common/thread_pool.hpp"
#include "rs/core/pipeline.hpp"
#include "rs/core/sequential_scaler.hpp"
#include "rs/workload/synthetic.hpp"

namespace {

using namespace rs;

/// Passes per side of a row; the row keeps each side's fastest.
constexpr std::size_t kPasses = 7;

struct Options {
  std::vector<std::size_t> mc = {100, 1000, 10000};
  std::size_t rounds = 50;
  double qps = 2.0;
  std::vector<core::ScalerVariant> variants = {
      core::ScalerVariant::kHittingProbability,
      core::ScalerVariant::kResponseTime, core::ScalerVariant::kCost};
  std::vector<std::size_t> workers = {0, 1, 8};
  std::uint64_t seed = 20260730;
  std::string json_path;
};

const char* VariantKey(core::ScalerVariant v) {
  switch (v) {
    case core::ScalerVariant::kHittingProbability:
      return "hp";
    case core::ScalerVariant::kResponseTime:
      return "rt";
    case core::ScalerVariant::kCost:
      return "cost";
  }
  return "?";
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--mc=", 0) == 0) {
      options.mc = bench::ParseSizeList(value());
    } else if (arg.rfind("--rounds=", 0) == 0) {
      options.rounds = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--qps=", 0) == 0) {
      options.qps = std::stod(value());
    } else if (arg.rfind("--variants=", 0) == 0) {
      options.variants.clear();
      const std::string list = value();
      for (std::size_t pos = 0; pos <= list.size();) {
        std::size_t end = list.find(',', pos);
        if (end == std::string::npos) end = list.size();
        const std::string token = list.substr(pos, end - pos);
        if (token == "hp") {
          options.variants.push_back(core::ScalerVariant::kHittingProbability);
        } else if (token == "rt") {
          options.variants.push_back(core::ScalerVariant::kResponseTime);
        } else if (token == "cost") {
          options.variants.push_back(core::ScalerVariant::kCost);
        } else {
          std::fprintf(stderr, "unknown variant: %s\n", token.c_str());
          std::exit(2);
        }
        pos = end + 1;
      }
    } else if (arg.rfind("--workers=", 0) == 0) {
      options.workers = bench::ParseSizeList(value());
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::stoull(value());
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_path = value();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  RS_CHECK(!options.mc.empty() && options.rounds > 0 &&
           !options.variants.empty());
  return options;
}

/// Sinusoidal test intensity around `qps` with a strictly positive floor,
/// on the production-scale grid (1-min bins over at least a day — the
/// default forecast shape ScalerBuilder trains, 1440+ bins).
workload::PiecewiseConstantIntensity MakeForecast(double qps, double horizon) {
  const double dt = 60.0, period = 3600.0;
  std::vector<double> rates;
  for (double t = 0.5 * dt; t < horizon; t += dt) {
    const double phase = std::fmod(t, period) / period;
    rates.push_back(qps * (1.0 + 0.6 * std::sin(2.0 * M_PI * phase)) + 1e-3);
  }
  return *workload::PiecewiseConstantIntensity::Make(std::move(rates), dt);
}

struct RunResult {
  double seconds = 0.0;
  std::size_t decisions = 0;
  std::size_t rounds = 0;
  std::vector<sim::ScalingAction> actions;
};

/// Drives `rounds` planning rounds with nothing outstanding (every round
/// commits a full depth of decisions — the steady worst case). With
/// `reference`, each of the policy's rounds runs through RunReferenceRound
/// on a master generator seeded like the policy's instead.
RunResult DriveRounds(const workload::PiecewiseConstantIntensity& forecast,
                      core::ScalerVariant variant, std::size_t mc_samples,
                      std::size_t rounds, std::uint64_t seed,
                      double planning_interval, bool reference = false) {
  core::SequentialScalerOptions options;
  options.variant = variant;
  options.mc_samples = mc_samples;
  options.planning_interval = planning_interval;
  options.seed = seed;
  options.rt_excess = 0.5;
  options.idle_budget = 1.0;
  core::RobustScalerPolicy policy(
      forecast, stats::DurationDistribution::Deterministic(13.0), options);

  std::vector<double> history;
  sim::SimContext ctx;
  ctx.arrival_history = &history;

  stats::Rng oracle_master(seed);
  const auto plan = [&](bool first) {
    if (reference) {
      return core::RunReferenceRound(policy.PlanningRound(ctx),
                                     &oracle_master);
    }
    return first ? policy.Initialize(ctx) : policy.OnPlanningTick(ctx);
  };

  RunResult run;
  run.rounds = rounds;
  run.actions.reserve(rounds + 1);
  // Warmup (not timed): first-touch buffer growth.
  run.actions.push_back(plan(true));
  Stopwatch watch;
  for (std::size_t i = 1; i <= rounds; ++i) {
    ctx.now = static_cast<double>(i) * planning_interval;
    run.actions.push_back(plan(false));
    run.decisions += run.actions.back().creation_times.size();
  }
  run.seconds = watch.ElapsedSeconds();
  return run;
}

void CheckActionParity(const RunResult& reference, const RunResult& optimized,
                       const char* what) {
  RS_CHECK(reference.actions.size() == optimized.actions.size()) << what;
  for (std::size_t i = 0; i < reference.actions.size(); ++i) {
    const auto& a = reference.actions[i].creation_times;
    const auto& b = optimized.actions[i].creation_times;
    RS_CHECK(a.size() == b.size())
        << what << ": round " << i << " emitted " << a.size() << " vs "
        << b.size() << " creations";
    for (std::size_t k = 0; k < a.size(); ++k) {
      RS_CHECK(a[k] == b[k]) << what << ": round " << i << ", creation " << k
                             << " diverged (" << a[k] << " vs " << b[k] << ")";
    }
  }
}

struct BenchRow {
  std::string variant;
  std::size_t mc = 0;
  std::size_t decisions = 0;
  double opt_s = 0.0;
  double ref_s = 0.0;
  double opt_decisions_per_s = 0.0;
  double ref_decisions_per_s = 0.0;
  double opt_ns_per_decision = 0.0;
  double ref_ns_per_decision = 0.0;
  double speedup = 0.0;
};

/// Trains one pipeline per worker count and verifies the fits (and the
/// actions a policy derives from them) are byte-identical — the
/// parallel-training half of the parity guarantee.
std::vector<double> CheckTrainingWorkerParity(
    const Options& options, const workload::PiecewiseConstantIntensity& base) {
  stats::Rng trace_rng(options.seed);
  auto trace = workload::MakeTraceFromIntensity(
      &trace_rng, base, stats::DurationDistribution::Exponential(15.0));
  RS_CHECK(trace.ok()) << trace.status().ToString();

  std::vector<double> train_seconds;
  std::vector<double> first_forecast;
  std::vector<sim::ScalingAction> first_actions;
  for (std::size_t workers : options.workers) {
    common::ThreadPool pool(workers);
    core::PipelineOptions pipeline;
    pipeline.dt = 60.0;
    pipeline.forecast_horizon = 3600.0;
    pipeline.training_pool = &pool;
    Stopwatch watch;
    auto trained = core::TrainRobustScaler(*trace, pipeline);
    train_seconds.push_back(watch.ElapsedSeconds());
    RS_CHECK(trained.ok()) << trained.status().ToString();

    auto run = DriveRounds(trained->forecast,
                           core::ScalerVariant::kHittingProbability, 200, 10,
                           options.seed, 1.0);
    if (first_forecast.empty()) {
      first_forecast = trained->forecast.rates();
      first_actions = std::move(run.actions);
    } else {
      RS_CHECK(first_forecast == trained->forecast.rates())
          << "training with " << workers
          << " workers produced a different forecast";
      RunResult reference;
      reference.actions = first_actions;
      CheckActionParity(reference, run, "training-worker parity");
    }
  }
  return train_seconds;
}

void WriteJson(const Options& options, const std::vector<BenchRow>& rows,
               const std::vector<double>& train_seconds) {
  std::ofstream out(options.json_path);
  RS_CHECK(static_cast<bool>(out)) << "cannot open " << options.json_path;
  out.precision(6);
  out << "{\n"
      << "  \"bench\": \"plan_hot_path\",\n"
      << "  \"rounds\": " << options.rounds << ",\n"
      << "  \"qps\": " << options.qps << ",\n"
      << "  \"seed\": " << options.seed << ",\n"
      << "  \"parity\": \"ok\",\n"
      << "  \"training_worker_parity\": {\"workers\": [";
  for (std::size_t i = 0; i < options.workers.size(); ++i) {
    out << options.workers[i] << (i + 1 < options.workers.size() ? ", " : "");
  }
  out << "], \"identical\": true, \"train_s\": [";
  for (std::size_t i = 0; i < train_seconds.size(); ++i) {
    out << train_seconds[i] << (i + 1 < train_seconds.size() ? ", " : "");
  }
  out << "]},\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    out << "    {\"variant\": \"" << row.variant << "\", \"mc\": " << row.mc
        << ", \"decisions\": " << row.decisions
        << ", \"optimized_s\": " << row.opt_s
        << ", \"reference_s\": " << row.ref_s
        << ", \"optimized_decisions_per_s\": " << row.opt_decisions_per_s
        << ", \"reference_decisions_per_s\": " << row.ref_decisions_per_s
        << ", \"optimized_ns_per_decision\": " << row.opt_ns_per_decision
        << ", \"reference_ns_per_decision\": " << row.ref_ns_per_decision
        << ", \"speedup\": " << row.speedup << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  RS_CHECK(static_cast<bool>(out)) << "write failed: " << options.json_path;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const double planning_interval = 1.0;
  const double horizon = std::max(
      86400.0, (static_cast<double>(options.rounds) + 2.0) * planning_interval);
  const auto forecast = MakeForecast(options.qps, horizon);

  std::printf(
      "plan_hot_path: %zu rounds/config, fastest of %zu passes, ~%.1f QPS, "
      "seed %llu\n\n",
      options.rounds, kPasses, options.qps,
      static_cast<unsigned long long>(options.seed));
  std::printf("%-8s %8s %10s %14s %14s %12s %12s %9s\n", "variant", "R",
              "decisions", "opt_dec_per_s", "ref_dec_per_s", "opt_ns_dec",
              "ref_ns_dec", "speedup");

  std::vector<BenchRow> rows;
  for (auto variant : options.variants) {
    for (std::size_t mc : options.mc) {
      RunResult reference, optimized;
      for (std::size_t pass = 0; pass < kPasses; ++pass) {
        auto ref = DriveRounds(forecast, variant, mc, options.rounds,
                               options.seed, planning_interval,
                               /*reference=*/true);
        auto opt = DriveRounds(forecast, variant, mc, options.rounds,
                               options.seed, planning_interval);
        // The parity self-check: same seed, same schedule — the two rounds
        // must have emitted byte-identical action sequences.
        CheckActionParity(ref, opt, VariantKey(variant));
        if (pass == 0 || ref.seconds < reference.seconds) {
          reference = std::move(ref);
        }
        if (pass == 0 || opt.seconds < optimized.seconds) {
          optimized = std::move(opt);
        }
      }
      RS_CHECK(optimized.decisions > 0) << "no decisions committed";

      BenchRow row;
      row.variant = VariantKey(variant);
      row.mc = mc;
      row.decisions = optimized.decisions;
      row.opt_s = optimized.seconds;
      row.ref_s = reference.seconds;
      const auto dec = static_cast<double>(optimized.decisions);
      row.opt_decisions_per_s = dec / optimized.seconds;
      row.ref_decisions_per_s = dec / reference.seconds;
      row.opt_ns_per_decision = optimized.seconds / dec * 1e9;
      row.ref_ns_per_decision = reference.seconds / dec * 1e9;
      row.speedup = reference.seconds / optimized.seconds;

      std::printf("%-8s %8zu %10zu %14.0f %14.0f %12.0f %12.0f %8.2fx\n",
                  row.variant.c_str(), row.mc, row.decisions,
                  row.opt_decisions_per_s, row.ref_decisions_per_s,
                  row.opt_ns_per_decision, row.ref_ns_per_decision,
                  row.speedup);
      rows.push_back(row);
    }
  }

  const auto train_seconds = CheckTrainingWorkerParity(options, forecast);
  std::printf("\nparity: reference vs optimized rounds identical; "
              "training byte-identical across workers {");
  for (std::size_t i = 0; i < options.workers.size(); ++i) {
    std::printf("%zu%s", options.workers[i],
                i + 1 < options.workers.size() ? ", " : "");
  }
  std::printf("}\n");

  if (!options.json_path.empty()) {
    WriteJson(options, rows, train_seconds);
    std::printf("wrote %s\n", options.json_path.c_str());
  }
  return 0;
}

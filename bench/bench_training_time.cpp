// Section VII-B2 (text): training-time and decision-latency measurements.
// The paper reports ~100 s to train modules 1-3 on three weeks of CRS data,
// <= 7 s on four days of Alibaba data, and < 5 ms per scaling-decision
// update on all traces. This harness times the same operations on the
// synthetic stand-in traces, optionally across training worker-pool sizes
// (the fit is byte-identical for every pool size — asserted here — so the
// workers column is purely wall time). Each scenario also reports the ADMM
// fit's iteration count and whether it met the stopping rule: both are
// deterministic, so CI gates them (tools/bench_gate.py).
//
// Usage:
//   bench_training_time [--workers=0,4] [--json=BENCH_training.json]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rs/common/stopwatch.hpp"
#include "rs/common/thread_pool.hpp"

namespace {

using namespace rs::bench;

struct Options {
  std::vector<std::size_t> workers = {0};
  std::string json_path;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--workers=", 0) == 0) {
      options.workers = ParseSizeList(value());
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_path = value();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  RS_CHECK(!options.workers.empty());
  return options;
}

struct ScenarioTiming {
  std::string name;
  std::size_t queries = 0;
  std::vector<double> train_s;  ///< One entry per worker count.
  double decide_ms = 0.0;
  std::size_t admm_iterations = 0;
  bool converged = false;
};

ScenarioTiming TimeScenario(rs::bench::Scenario&& scenario,
                            const std::vector<std::size_t>& workers) {
  ScenarioTiming timing;
  timing.name = scenario.name;
  timing.queries = scenario.train.size();

  rs::core::TrainedPipeline trained;
  std::vector<double> first_rates;
  for (std::size_t worker_count : workers) {
    rs::common::ThreadPool pool(worker_count);
    rs::core::PipelineOptions pipeline;
    pipeline.dt = scenario.dt;
    pipeline.periodicity.aggregate_factor = scenario.aggregate_factor;
    pipeline.forecast_horizon = scenario.test.horizon();
    pipeline.training_pool = &pool;
    rs::Stopwatch train_watch;
    auto result = rs::api::TrainPipeline(scenario.train, pipeline);
    timing.train_s.push_back(train_watch.ElapsedSeconds());
    RS_CHECK(result.ok()) << result.status().ToString();
    trained = std::move(result).ValueOrDie();
    if (first_rates.empty()) {
      first_rates = trained.forecast.rates();
      timing.admm_iterations = trained.admm_info.iterations;
      timing.converged = trained.admm_info.converged;
    } else {
      RS_CHECK(first_rates == trained.forecast.rates() &&
               timing.admm_iterations == trained.admm_info.iterations)
          << scenario.name << ": training with " << worker_count
          << " workers changed the fit";
    }
  }

  // Time one steady-state decision update (a planning round mid-test).
  auto policy = MakeVariantPolicy(trained, scenario,
                                  rs::core::ScalerVariant::kHittingProbability,
                                  0.9);
  rs::sim::SimContext ctx;
  ctx.now = scenario.test.horizon() / 2.0;
  std::vector<double> no_history;
  ctx.arrival_history = &no_history;
  // First call commits the look-ahead; the second measures steady re-planning.
  (void)policy->OnPlanningTick(ctx);
  ctx.scheduled_creations = 0;
  rs::Stopwatch decide_watch;
  (void)policy->OnPlanningTick(ctx);
  timing.decide_ms = decide_watch.ElapsedMillis();

  std::printf("%-10s %10zu", timing.name.c_str(), timing.queries);
  for (double s : timing.train_s) std::printf(" %13.2f", s);
  std::printf(" %15.3f %10zu %10s\n", timing.decide_ms, timing.admm_iterations,
              timing.converged ? "yes" : "no");
  return timing;
}

void WriteJson(const Options& options,
               const std::vector<ScenarioTiming>& timings) {
  std::ofstream out(options.json_path);
  RS_CHECK(static_cast<bool>(out)) << "cannot open " << options.json_path;
  out.precision(6);
  out << "{\n"
      << "  \"bench\": \"training_time\",\n"
      << "  \"workers\": [";
  for (std::size_t i = 0; i < options.workers.size(); ++i) {
    out << options.workers[i] << (i + 1 < options.workers.size() ? ", " : "");
  }
  out << "],\n  \"worker_parity\": \"identical\",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const auto& t = timings[i];
    out << "    {\"trace\": \"" << t.name << "\", \"queries\": " << t.queries
        << ", \"train_s\": [";
    for (std::size_t w = 0; w < t.train_s.size(); ++w) {
      out << t.train_s[w] << (w + 1 < t.train_s.size() ? ", " : "");
    }
    out << "], \"decision_ms\": " << t.decide_ms
        << ", \"admm_iterations\": " << t.admm_iterations
        << ", \"converged\": " << (t.converged ? "true" : "false") << "}"
        << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  RS_CHECK(static_cast<bool>(out)) << "write failed: " << options.json_path;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  PrintHeader("Section VII-B2 — training time and decision latency");
  std::printf("%-10s %10s", "trace", "queries");
  for (std::size_t w : options.workers) std::printf("  train_s(w=%zu)", w);
  std::printf(" %15s %10s %10s\n", "decision_ms", "admm_iters", "converged");

  std::vector<ScenarioTiming> timings;
  timings.push_back(TimeScenario(MakeCrsScenario(), options.workers));
  timings.push_back(TimeScenario(MakeGoogleScenario(), options.workers));
  timings.push_back(TimeScenario(MakeAlibabaScenario(), options.workers));

  std::printf("\nPaper reference: ~100 s (CRS, 3 weeks), <= 7 s (Alibaba,\n"
              "4 days) training; < 5 ms per decision update. Training here is\n"
              "faster because the synthetic stand-ins use coarser bins; the\n"
              "ordering and the millisecond-scale decisions are the point.\n");

  if (!options.json_path.empty()) {
    WriteJson(options, timings);
    std::printf("wrote %s\n", options.json_path.c_str());
  }
  return 0;
}

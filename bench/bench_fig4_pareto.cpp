// Fig. 4(a-f): Pareto plots — hit_rate vs relative_cost and rt_avg vs
// relative_cost for BP, AdapBP, RobustScaler-HP/RT/cost on each of the
// three traces. Each printed row is one point of one line in the figure.
//
// Expected shape (paper): RobustScaler-HP/RT dominate BP everywhere and
// AdapBP on Google/Alibaba; on CRS AdapBP is competitive at low cost but
// RobustScaler catches up as cost grows; RobustScaler-cost wins except at
// high-cost CRS operating points.
//
// Usage:
//   bench_fig4_pareto [--json=BENCH_fig4.json]
//
// The JSON carries every point's hit rate and creations per query (the
// instances a strategy created over the queries it served); it is the
// Fig. 4 half of the paper-fidelity gate (tools/bench_gate.py).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using rs::bench::Scenario;

/// One printed point, kept for the JSON report.
struct ParetoPoint {
  std::string trace;
  std::string strategy;
  double parameter = 0.0;
  double hit_rate = 0.0;
  double creations_per_query = 0.0;
  double rel_cost = 0.0;
};

void RunScenario(Scenario&& scenario, std::vector<ParetoPoint>* points,
                 const std::vector<double>& bp_sizes,
                 const std::vector<double>& adap_multipliers,
                 const std::vector<double>& hp_targets,
                 const std::vector<double>& rt_targets,
                 const std::vector<double>& cost_targets) {
  using namespace rs::bench;
  std::printf("\n---- trace: %s (%zu train / %zu test queries, reactive cost "
              "%.0f s) ----\n",
              scenario.name.c_str(), scenario.train.size(),
              scenario.test.size(), scenario.reactive_cost);
  PrintParetoHeader();
  const auto emit = [&](const char* strategy, double parameter,
                        const rs::sim::Metrics& m) {
    PrintParetoRow(strategy, parameter, m, scenario.reactive_cost);
    points->push_back(
        {scenario.name, strategy, parameter, m.hit_rate,
         static_cast<double>(m.num_instances) /
             static_cast<double>(std::max<std::size_t>(m.num_queries, 1)),
         rs::sim::RelativeCost(m, scenario.reactive_cost)});
  };

  for (double b : bp_sizes) {
    auto bp = MakeNamedStrategy(
        {.name = "backup_pool", .params = {{"pool_size", b}}});
    emit("BP", b, RunStrategy(scenario, bp.get()));
  }
  for (double mult : adap_multipliers) {
    auto adap = MakeNamedStrategy(
        {.name = "adaptive_backup_pool", .params = {{"multiplier", mult}}});
    emit("AdapBP", mult, RunStrategy(scenario, adap.get()));
  }

  const auto trained = TrainOn(scenario);
  std::printf("# NHPP trained: period=%zu bins, admm_iters=%zu\n",
              trained.period.period, trained.admm_info.iterations);
  for (double target : hp_targets) {
    auto policy = MakeVariantPolicy(trained, scenario,
                                    rs::core::ScalerVariant::kHittingProbability,
                                    target);
    emit("RobustScaler-HP", target, RunStrategy(scenario, policy.get()));
  }
  for (double target : rt_targets) {
    auto policy = MakeVariantPolicy(trained, scenario,
                                    rs::core::ScalerVariant::kResponseTime,
                                    target);
    emit("RobustScaler-RT", target, RunStrategy(scenario, policy.get()));
  }
  for (double target : cost_targets) {
    auto policy = MakeVariantPolicy(trained, scenario,
                                    rs::core::ScalerVariant::kCost, target);
    emit("RobustScaler-cost", target, RunStrategy(scenario, policy.get()));
  }
}

void WriteJson(const std::string& path,
               const std::vector<ParetoPoint>& points) {
  std::ofstream out(path);
  RS_CHECK(static_cast<bool>(out)) << "cannot open " << path;
  out.precision(6);
  out << "{\n  \"bench\": \"fig4_pareto\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ParetoPoint& p = points[i];
    out << "    {\"trace\": \"" << p.trace << "\", \"strategy\": \""
        << p.strategy << "\", \"parameter\": " << p.parameter
        << ", \"hit_rate\": " << p.hit_rate
        << ", \"creations_per_query\": " << p.creations_per_query
        << ", \"rel_cost\": " << p.rel_cost << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  RS_CHECK(static_cast<bool>(out)) << "write failed: " << path;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rs::bench;
  const std::string json_path = JsonPathArg(argc, argv);
  std::vector<ParetoPoint> points;
  PrintHeader(
      "Fig. 4 — Pareto fronts: hit_rate / rt_avg vs relative cost, 5 "
      "autoscalers x 3 traces");

  // CRS: paper sweeps B in 0..8.
  RunScenario(MakeCrsScenario(), &points,
              /*bp_sizes=*/{0, 1, 2, 3, 5, 8},
              /*adap_multipliers=*/{50, 150, 400, 800, 1600},
              /*hp_targets=*/{0.5, 0.7, 0.8, 0.9, 0.95, 0.99},
              /*rt_targets=*/{10.0, 6.0, 3.0, 1.0, 0.3},
              /*cost_targets=*/{15.0, 60.0, 180.0, 400.0, 800.0});

  // Google: paper sweeps B in 0..40.
  RunScenario(MakeGoogleScenario(), &points,
              /*bp_sizes=*/{0, 2, 5, 10, 20, 40},
              /*adap_multipliers=*/{10, 25, 60, 120, 250},
              /*hp_targets=*/{0.5, 0.7, 0.8, 0.9, 0.95, 0.99},
              /*rt_targets=*/{10.0, 6.0, 3.0, 1.0, 0.3},
              /*cost_targets=*/{2.0, 8.0, 20.0, 60.0, 150.0});

  // Alibaba: paper sweeps B in 0..450 (we run a scaled trace; the sweep is
  // scaled accordingly).
  RunScenario(MakeAlibabaScenario(), &points,
              /*bp_sizes=*/{0, 5, 15, 30, 60, 100},
              /*adap_multipliers=*/{5, 15, 35, 80, 160},
              /*hp_targets=*/{0.5, 0.7, 0.8, 0.9, 0.95, 0.99},
              /*rt_targets=*/{10.0, 6.0, 3.0, 1.0, 0.3},
              /*cost_targets=*/{2.0, 8.0, 20.0, 60.0, 150.0});

  if (!json_path.empty()) {
    WriteJson(json_path, points);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

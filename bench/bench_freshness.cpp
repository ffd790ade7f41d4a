// Model-freshness loop under scripted regime shifts: drift detection →
// warm-start background retrain → tear-free hot swap (ScalerFleet::
// EnableFreshness).
//
// Builds a fleet of T tenants on stationary training windows of the 600 s
// sine workload (bench/serving_session.hpp), then serves a test window
// (one merged, (time, tenant)-ordered arrival stream) where half the
// tenants change regime at mid-serve (even shifted tenants jump to 4x the
// traffic level, odd ones switch to a 3x shorter period). The freshness
// loop must catch every shifted tenant and swap a retrained model in at a
// plan boundary while the unshifted tenants stay silent — the bench aborts
// if either side fails, so the reported numbers are always from a run
// where the loop actually worked.
//
// Reported per --retrain-workers setting:
//   detection_rate            shifted tenants whose detector latched
//   false_positives           unshifted tenants that latched (must be 0)
//   staleness_mean/max_s      serving time from the regime shift to the
//                             first swapped-in retrained model
//   swap_latency_mean_s       drift latch → swap boundary
//   plans_per_s               tenant-plans per wall second (batch count ×
//                             tenants / serve wall time)
//   throughput_vs_no_freshness  plans_per_s relative to a freshness-off
//                             control run on the same machine (ratio, so
//                             the perf gate tracks it machine-independently)
//   max_plan_batch_ms         worst PlanAll wall time (swap boundaries
//                             included — tear-free must not mean slow)
//
// Drift detection runs on the caller thread, so detection times are
// byte-identical across --retrain-workers settings (checked). Swap timing
// is deterministic only for --retrain-workers=0 (inline retrains); with a
// background pool the fit lands whenever the pool gets to it.
//
// Usage:
//   bench_freshness [--tenants=8] [--retrain-workers=0,1]
//                   [--fleet-threads=1] [--cycles=2] [--qps=1] [--mc=60]
//                   [--min-retrain-interval=120]
//                   [--strategy=robust_hp:target=0.9]
//                   [--json=BENCH_freshness.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "rs/common/stopwatch.hpp"
#include "serving_session.hpp"

namespace {

using namespace rs;
using bench::kSessionBinS;
using bench::SineRate;

constexpr double kPeriodS = 600.0;   ///< Workload cycle before the shift.
constexpr double kPlanEvery = 2.0;   ///< Serving plan cadence (seconds).
constexpr double kTrainCycles = 6.0;

struct Options {
  std::size_t tenants = 8;
  std::vector<std::size_t> retrain_workers = {0, 1};
  std::size_t fleet_threads = 1;
  double cycles = 2.0;  ///< Serving window, in kPeriodS workload cycles.
  double qps = 1.0;
  std::size_t mc_samples = 60;
  double min_retrain_interval = 120.0;
  std::string strategy = "robust_hp:target=0.9";
  std::string json_path;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--tenants=", 0) == 0) {
      options.tenants = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--retrain-workers=", 0) == 0) {
      options.retrain_workers = bench::ParseSizeList(value());
    } else if (arg.rfind("--fleet-threads=", 0) == 0) {
      options.fleet_threads = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--cycles=", 0) == 0) {
      options.cycles = std::stod(value());
    } else if (arg.rfind("--qps=", 0) == 0) {
      options.qps = std::stod(value());
    } else if (arg.rfind("--mc=", 0) == 0) {
      options.mc_samples = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--min-retrain-interval=", 0) == 0) {
      options.min_retrain_interval = std::stod(value());
    } else if (arg.rfind("--strategy=", 0) == 0) {
      options.strategy = value();
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_path = value();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  RS_CHECK(options.tenants > 0);
  RS_CHECK(!options.retrain_workers.empty());
  RS_CHECK(options.cycles > 0.0);
  RS_CHECK(options.qps > 0.0);
  return options;
}

struct TenantWorkload {
  workload::Trace train;  ///< Stationary, kTrainCycles cycles.
  workload::Trace test;   ///< Serving window; may shift at t_shift.
  bool shifted = false;
};

TenantWorkload MakeTenantWorkload(std::size_t tenant, const Options& options,
                                  double serve_horizon, double t_shift) {
  const double phase0 = bench::SinePhase(tenant);
  TenantWorkload w;
  // Half the fleet shifts; alternating so shifted/unshifted interleave in
  // registration order.
  w.shifted = (tenant % 2) == 0;
  w.train = bench::DrawTrace(
      bench::SineRates(kTrainCycles * kPeriodS, options.qps, kPeriodS, phase0),
      1000 + tenant);
  std::vector<double> test_rates;
  for (double t = 0.5 * kSessionBinS; t < serve_horizon; t += kSessionBinS) {
    if (!w.shifted || t < t_shift) {
      test_rates.push_back(SineRate(t, options.qps, kPeriodS, phase0));
    } else if ((tenant / 2) % 2 == 0) {
      // Level regime shift: 4x the traffic, same shape.
      test_rates.push_back(SineRate(t, 4.0 * options.qps, kPeriodS, phase0));
    } else {
      // Periodicity break: same mean level, 3x shorter cycle.
      test_rates.push_back(SineRate(t, options.qps, kPeriodS / 3.0, phase0));
    }
  }
  w.test = bench::DrawTrace(test_rates, 5000 + tenant);
  return w;
}

struct RunResult {
  bool freshness = false;
  std::size_t retrain_workers = 0;
  double serve_s = 0.0;
  std::size_t plan_batches = 0;
  double max_plan_batch_s = 0.0;
  std::vector<double> drift_time;  ///< Per tenant; <0 = never latched.
  std::vector<ts::DriftKind> drift_kind;  ///< First latched kind per tenant.
  std::vector<double> swap_time;   ///< Per tenant; <0 = never swapped.
  std::size_t retrains_completed = 0;
  std::size_t retrain_failures = 0;
  double plans_per_s = 0.0;
};

api::ScalerFleet BuildFleet(const Options& options,
                            const std::vector<TenantWorkload>& workloads,
                            double serve_horizon) {
  auto spec = api::ParseStrategySpec(options.strategy);
  RS_CHECK(spec.ok()) << spec.status().ToString();
  api::ScalerFleet fleet(options.fleet_threads);
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    auto scaler = api::ScalerBuilder()
                      .WithTrace(workloads[i].train)
                      .WithBinWidth(kSessionBinS)
                      .WithForecastHorizon(serve_horizon)
                      .WithStrategy(*spec)
                      .WithPlanningInterval(kPlanEvery)
                      .WithMcSamples(options.mc_samples)
                      .Build();
    RS_CHECK(scaler.ok()) << scaler.status().ToString();
    RS_CHECK(fleet.Register("tenant-" + std::to_string(i),
                            std::move(scaler).ValueOrDie())
                 .ok());
  }
  return fleet;
}

RunResult RunOnce(const Options& options,
                  const std::vector<TenantWorkload>& workloads,
                  const std::vector<bench::Arrival>& events,
                  double serve_horizon, bool freshness,
                  std::size_t retrain_workers) {
  RunResult run;
  run.freshness = freshness;
  run.retrain_workers = retrain_workers;
  run.drift_time.assign(workloads.size(), -1.0);
  run.drift_kind.assign(workloads.size(), ts::DriftKind::kNone);
  run.swap_time.assign(workloads.size(), -1.0);

  api::ScalerFleet fleet = BuildFleet(options, workloads, serve_horizon);
  if (freshness) {
    api::FreshnessPolicy policy;
    policy.pipeline.dt = kSessionBinS;
    policy.pipeline.forecast_horizon = serve_horizon;
    policy.min_retrain_interval = options.min_retrain_interval;
    policy.retrain_workers = retrain_workers;
    RS_CHECK(fleet.EnableFreshness(policy).ok());
  }

  std::vector<std::string> names;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    names.push_back("tenant-" + std::to_string(i));
  }
  const auto poll_freshness = [&] {
    if (!freshness) return;
    for (std::size_t i = 0; i < names.size(); ++i) {
      auto status = fleet.Freshness(names[i]);
      RS_CHECK(status.ok()) << status.status().ToString();
      if (run.drift_time[i] < 0.0 && status->drift != ts::DriftKind::kNone) {
        run.drift_time[i] = status->drift_time;
        run.drift_kind[i] = status->drift;
      }
      if (run.swap_time[i] < 0.0 && status->swaps_applied > 0) {
        run.swap_time[i] = status->last_swap_time;
      }
    }
  };

  Stopwatch serve_watch;
  Stopwatch batch_watch;
  double next_plan = kPlanEvery;
  const auto plan_batch = [&](double t) {
    batch_watch.Reset();
    for (const auto& plan : fleet.PlanAll(t)) {
      RS_CHECK(plan.status.ok())
          << plan.tenant << ": " << plan.status.ToString();
    }
    run.max_plan_batch_s =
        std::max(run.max_plan_batch_s, batch_watch.ElapsedSeconds());
    ++run.plan_batches;
    poll_freshness();
  };
  for (const auto& event : events) {
    while (next_plan <= event.t) {
      plan_batch(next_plan);
      next_plan += kPlanEvery;
    }
    auto outcome = fleet.Observe(names[event.tenant], event.t);
    RS_CHECK(outcome.ok()) << outcome.status().ToString();
  }
  // Keep planning past the last arrival so in-flight background retrains
  // still reach a swap boundary before the run ends.
  while (next_plan <= serve_horizon) {
    plan_batch(next_plan);
    next_plan += kPlanEvery;
  }
  run.serve_s = serve_watch.ElapsedSeconds();
  run.plans_per_s = static_cast<double>(run.plan_batches * workloads.size()) /
                    run.serve_s;

  // The bench compresses ~20 simulated minutes into well under a second of
  // wall time, so a background fit can still be in flight when the arrival
  // stream ends. Drain: keep offering plan boundaries at the final serving
  // time (not counted in the throughput numbers above) until every
  // in-flight retrain has swapped or a wall-time cap expires.
  if (freshness) {
    Stopwatch drain_watch;
    while (drain_watch.ElapsedSeconds() < 10.0) {
      bool inflight = false;
      for (const auto& name : names) {
        auto status = fleet.Freshness(name);
        RS_CHECK(status.ok()) << status.status().ToString();
        if (status->retrain_inflight) inflight = true;
      }
      if (!inflight) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      for (const auto& plan : fleet.PlanAll(serve_horizon)) {
        RS_CHECK(plan.status.ok())
            << plan.tenant << ": " << plan.status.ToString();
      }
      poll_freshness();
    }
  }

  if (freshness) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      auto status = fleet.Freshness(names[i]);
      RS_CHECK(status.ok()) << status.status().ToString();
      run.retrains_completed += status->retrains_completed;
      run.retrain_failures += status->retrain_failures;
    }
  }
  return run;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

struct RowMetrics {
  std::size_t shifted = 0;
  std::size_t drifted_shifted = 0;
  std::size_t swapped_shifted = 0;
  std::size_t false_positives = 0;
  double detection_rate = 0.0;
  double staleness_mean_s = 0.0;
  double staleness_max_s = 0.0;
  double swap_latency_mean_s = 0.0;
};

RowMetrics Summarize(const std::vector<TenantWorkload>& workloads,
                     const RunResult& run, double t_shift) {
  RowMetrics m;
  std::vector<double> staleness;
  std::vector<double> latency;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    if (workloads[i].shifted) {
      ++m.shifted;
      if (run.drift_time[i] >= 0.0) ++m.drifted_shifted;
      if (run.swap_time[i] >= 0.0) {
        ++m.swapped_shifted;
        staleness.push_back(run.swap_time[i] - t_shift);
        if (run.drift_time[i] >= 0.0) {
          latency.push_back(run.swap_time[i] - run.drift_time[i]);
        }
      }
    } else if (run.drift_time[i] >= 0.0) {
      ++m.false_positives;
    }
  }
  m.detection_rate = m.shifted == 0
                         ? 1.0
                         : static_cast<double>(m.drifted_shifted) /
                               static_cast<double>(m.shifted);
  m.staleness_mean_s = Mean(staleness);
  m.staleness_max_s =
      staleness.empty() ? 0.0
                        : *std::max_element(staleness.begin(), staleness.end());
  m.swap_latency_mean_s = Mean(latency);
  return m;
}

void WriteJson(const Options& options, double serve_horizon, double t_shift,
               const std::vector<std::pair<RunResult, RowMetrics>>& rows,
               double control_plans_per_s) {
  std::ofstream out(options.json_path);
  RS_CHECK(static_cast<bool>(out)) << "cannot open " << options.json_path;
  out.precision(6);
  out << "{\n"
      << "  \"bench\": \"freshness\",\n"
      << "  \"strategy\": \"" << options.strategy << "\",\n"
      << "  \"tenants\": " << options.tenants << ",\n"
      << "  \"serve_horizon_s\": " << serve_horizon << ",\n"
      << "  \"shift_time_s\": " << t_shift << ",\n"
      << "  \"mc_samples\": " << options.mc_samples << ",\n"
      << "  \"min_retrain_interval_s\": " << options.min_retrain_interval
      << ",\n"
      << "  \"control_plans_per_s\": " << control_plans_per_s << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunResult& run = rows[i].first;
    const RowMetrics& m = rows[i].second;
    out << "    {\"retrain_workers\": " << run.retrain_workers
        << ", \"shifted\": " << m.shifted
        << ", \"drifted_shifted\": " << m.drifted_shifted
        << ", \"swapped_shifted\": " << m.swapped_shifted
        << ", \"detection_rate\": " << m.detection_rate
        << ", \"false_positives\": " << m.false_positives
        << ", \"staleness_mean_s\": " << m.staleness_mean_s
        << ", \"staleness_max_s\": " << m.staleness_max_s
        << ", \"swap_latency_mean_s\": " << m.swap_latency_mean_s
        << ", \"retrains_completed\": " << run.retrains_completed
        << ", \"retrain_failures\": " << run.retrain_failures
        << ", \"plans_per_s\": " << run.plans_per_s
        << ", \"throughput_vs_no_freshness\": "
        << run.plans_per_s / control_plans_per_s
        << ", \"max_plan_batch_ms\": " << 1000.0 * run.max_plan_batch_s << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  RS_CHECK(static_cast<bool>(out)) << "write failed: " << options.json_path;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const double serve_horizon = options.cycles * kPeriodS;
  // Shift a third of the way in: the periodicity-break tenants need the
  // sliding phase ring to refill with post-shift observations before the
  // correlation collapses, so the shifted regime gets the longer leg.
  const double t_shift = serve_horizon / 3.0;

  std::vector<TenantWorkload> workloads;
  std::vector<bench::Arrival> events;
  for (std::size_t i = 0; i < options.tenants; ++i) {
    workloads.push_back(
        MakeTenantWorkload(i, options, serve_horizon, t_shift));
    bench::AddArrivals(i, workloads[i].test, &events);
  }
  bench::SortArrivals(&events);
  std::printf(
      "freshness: %zu tenants (%zu shifted at t=%.0f s), %zu arrivals over "
      "%.0f s, strategy %s, R=%zu\n\n",
      options.tenants, (options.tenants + 1) / 2, t_shift, events.size(),
      serve_horizon, options.strategy.c_str(), options.mc_samples);

  // Freshness-off control: the throughput denominator.
  const RunResult control = RunOnce(options, workloads, events, serve_horizon,
                                    /*freshness=*/false, 0);
  std::printf("control (freshness off): %.0f tenant-plans/s\n\n",
              control.plans_per_s);

  std::printf("%9s %7s %7s %6s %11s %11s %9s %11s %9s\n", "rworkers",
              "detect", "swapped", "falsep", "stale_avg_s", "stale_max_s",
              "latency_s", "plans_per_s", "vs_ctrl");
  std::vector<std::pair<RunResult, RowMetrics>> rows;
  for (std::size_t workers : options.retrain_workers) {
    RunResult run = RunOnce(options, workloads, events, serve_horizon,
                            /*freshness=*/true, workers);
    RowMetrics m = Summarize(workloads, run, t_shift);
    // The loop has to have actually worked for the numbers to mean
    // anything: every shifted tenant detected and swapped tear-free, every
    // unshifted tenant silent.
    if (m.drifted_shifted != m.shifted) {
      for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (workloads[i].shifted && run.drift_time[i] < 0.0) {
          std::fprintf(stderr, "  missed: tenant-%zu (%s shift)\n", i,
                       (i / 2) % 2 == 0 ? "level" : "period");
        }
      }
    }
    RS_CHECK(m.drifted_shifted == m.shifted)
        << m.drifted_shifted << "/" << m.shifted
        << " shifted tenants detected (retrain_workers=" << workers << ")";
    RS_CHECK(m.swapped_shifted == m.shifted)
        << m.swapped_shifted << "/" << m.shifted
        << " shifted tenants swapped (retrain_workers=" << workers << ")";
    if (m.false_positives != 0) {
      for (std::size_t i = 0; i < workloads.size(); ++i) {
        if (!workloads[i].shifted && run.drift_time[i] >= 0.0) {
          std::fprintf(stderr, "  false positive: tenant-%zu %s at t=%.0f\n",
                       i, ts::DriftKindToString(run.drift_kind[i]),
                       run.drift_time[i]);
        }
      }
    }
    RS_CHECK(m.false_positives == 0)
        << m.false_positives << " unshifted tenants latched drift";
    RS_CHECK(run.retrain_failures == 0)
        << run.retrain_failures << " retrain failures";
    // Detection runs on the caller thread: identical across worker counts.
    RS_CHECK(rows.empty() || rows.front().first.drift_time == run.drift_time)
        << "drift detection times depend on retrain_workers";
    std::printf("%9zu %5zu/%zu %5zu/%zu %6zu %11.1f %11.1f %9.1f %11.0f "
                "%8.2fx\n",
                workers, m.drifted_shifted, m.shifted, m.swapped_shifted,
                m.shifted, m.false_positives, m.staleness_mean_s,
                m.staleness_max_s, m.swap_latency_mean_s, run.plans_per_s,
                run.plans_per_s / control.plans_per_s);
    rows.emplace_back(std::move(run), m);
  }

  if (!options.json_path.empty()) {
    WriteJson(options, serve_horizon, t_shift, rows, control.plans_per_s);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}

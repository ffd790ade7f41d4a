// Multi-tenant serving throughput: tenants × worker threads.
//
// Builds a ScalerFleet of T per-tenant models (the 600 s sine workload of
// bench/serving_session.hpp, phase-shifted per tenant), drives the merged
// (time, tenant)-ordered arrival stream plus periodic PlanAll
// batches through it once per worker-thread count, and reports the serving
// wall time, planning throughput, and speedup over the single-worker run.
// Every run must produce byte-identical per-tenant action sequences — the
// fleet's parity guarantee — so the bench double-checks its own numbers by
// comparing each run's action logs against the first run's.
//
// Usage:
//   bench_fleet_scaling [--tenants=8] [--threads=1,2,4] [--cycles=2]
//                       [--qps=2] [--mc=200]
//                       [--strategy=robust_hp:target=0.9]
//                       [--snapshot-interval=0] [--json=BENCH_fleet.json]
//
// Tenants are the only grain of parallelism: each tenant's Plan runs
// serially on whichever worker picks it up, so a fleet uses at most
// min(tenants, threads) cores. Every thread count must emit byte-identical
// per-tenant actions; the bench aborts on any divergence.
//
// --snapshot-interval=N (seconds of serving time; 0 = off) additionally
// calls SaveFleet every N seconds and reports the cumulative snapshot wall
// time and the last snapshot's size (snapshot_ms / snapshot_bytes in the
// JSON — informational, not gated, so enabling it never churns the perf
// baseline).
//
// Per-tick planning work scales with traffic (~qps·Δ Monte-Carlo
// decisions per tenant per tick), so --qps and --mc set the grain of the
// parallelizable work. The defaults finish in a few seconds; CI's
// perf-smoke job runs tiny sizes and uploads the JSON (see
// .github/workflows/ci.yml and EXPERIMENTS.md).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "rs/common/stopwatch.hpp"
#include "serving_session.hpp"

namespace {

using namespace rs;

struct Options {
  std::size_t tenants = 8;
  std::vector<std::size_t> threads = {1, 2, 4};
  double cycles = 2.0;        ///< Serving window, in 600 s workload cycles.
  double qps = 2.0;           ///< Mean per-tenant arrival rate (scales work).
  std::size_t mc_samples = 200;
  std::string strategy = "robust_hp:target=0.9";
  /// Serving-time seconds between SaveFleet calls; 0 disables snapshotting.
  double snapshot_interval = 0.0;
  std::string json_path;      ///< Empty: stdout table only.
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--tenants=", 0) == 0) {
      options.tenants = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads.clear();
      const std::string list = value();
      for (std::size_t pos = 0; pos <= list.size();) {
        std::size_t end = list.find(',', pos);
        if (end == std::string::npos) end = list.size();
        const std::string token = list.substr(pos, end - pos);
        if (token.empty() ||
            token.find_first_not_of("0123456789") != std::string::npos) {
          std::fprintf(stderr, "bad --threads list: %s\n", list.c_str());
          std::exit(2);
        }
        options.threads.push_back(
            static_cast<std::size_t>(std::stoul(token)));
        pos = end + 1;
      }
    } else if (arg.rfind("--cycles=", 0) == 0) {
      options.cycles = std::stod(value());
    } else if (arg.rfind("--qps=", 0) == 0) {
      options.qps = std::stod(value());
    } else if (arg.rfind("--mc=", 0) == 0) {
      options.mc_samples = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--strategy=", 0) == 0) {
      options.strategy = value();
    } else if (arg.rfind("--snapshot-interval=", 0) == 0) {
      options.snapshot_interval = std::stod(value());
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_path = value();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  RS_CHECK(options.tenants > 0);
  RS_CHECK(!options.threads.empty());
  RS_CHECK(options.cycles > 0.0);
  RS_CHECK(options.qps > 0.0);
  return options;
}

struct TenantWorkload {
  workload::Trace train;
  workload::Trace test;
};

struct RunResult {
  std::size_t threads = 0;
  double train_s = 0.0;
  double serve_s = 0.0;
  double plan_s = 0.0;     ///< Of serve_s: inside PlanAll batches.
  double observe_s = 0.0;  ///< Of serve_s: inside (serial) Observe calls.
  std::size_t plan_batches = 0;
  std::size_t planning_rounds = 0;  ///< Strategy callbacks, all tenants.
  std::size_t observes = 0;
  // --snapshot-interval metrics (all zero when snapshotting is off).
  double snapshot_s = 0.0;          ///< Cumulative SaveFleet wall time.
  std::size_t snapshot_bytes = 0;   ///< Size of the last fleet snapshot.
  std::size_t snapshots = 0;
  bench::ActionLogs logs;  ///< Per tenant.
};

TenantWorkload MakeTenantWorkload(std::size_t tenant, double serve_cycles,
                                  double qps) {
  const double period_s = 600.0;
  const double horizon = (6.0 + serve_cycles) * period_s;
  const workload::Trace trace = bench::DrawTrace(
      bench::SineRates(horizon, qps, period_s, bench::SinePhase(tenant)),
      1000 + tenant);
  TenantWorkload w;
  auto [train, test] = trace.SplitAt(horizon - serve_cycles * period_s);
  w.train = std::move(train);
  w.test = std::move(test);
  return w;
}

RunResult RunOnce(const Options& options,
                  const std::vector<TenantWorkload>& workloads,
                  const std::vector<bench::Arrival>& events,
                  double serve_horizon, std::size_t threads) {
  RunResult run;
  run.threads = threads;

  auto spec = api::ParseStrategySpec(options.strategy);
  RS_CHECK(spec.ok()) << spec.status().ToString();

  std::vector<std::string> names;
  for (std::size_t i = 0; i < options.tenants; ++i) {
    names.push_back("tenant-" + std::to_string(i));
  }
  Stopwatch train_watch;
  api::ScalerFleet fleet(threads);
  for (std::size_t i = 0; i < options.tenants; ++i) {
    auto scaler = api::ScalerBuilder()
                      .WithTrace(workloads[i].train)
                      .WithBinWidth(30.0)
                      .WithForecastHorizon(serve_horizon)
                      .WithStrategy(*spec)
                      .WithPlanningInterval(2.0)
                      .WithMcSamples(options.mc_samples)
                      .Build();
    RS_CHECK(scaler.ok()) << scaler.status().ToString();
    RS_CHECK(fleet.Register(names[i], std::move(scaler).ValueOrDie()).ok());
    // Keep the full action log so the run's parity can be cross-checked.
    RS_CHECK(fleet.Find(names[i])
                 ->ConfigureHistoryRetention(sim::kUnboundedHistory)
                 .ok());
  }
  run.train_s = train_watch.ElapsedSeconds();

  // Poll at the planning interval (the documented serving cadence): each
  // tick's strategy decision then runs inside a PlanAll batch on the
  // worker pool, instead of being executed lazily by the next Observe()
  // on the caller thread.
  const double plan_every = 2.0;
  double next_plan = plan_every;
  double next_snapshot = options.snapshot_interval;
  Stopwatch serve_watch;
  Stopwatch phase_watch;
  const auto plan_batch = [&](double t) {
    phase_watch.Reset();
    for (const auto& plan : fleet.PlanAll(t)) {
      RS_CHECK(plan.status.ok())
          << plan.tenant << ": " << plan.status.ToString();
    }
    run.plan_s += phase_watch.ElapsedSeconds();
    ++run.plan_batches;
  };
  const auto maybe_snapshot = [&](double t) {
    if (options.snapshot_interval <= 0.0) return;
    while (next_snapshot <= t) {
      phase_watch.Reset();
      std::ostringstream sink;
      RS_CHECK(fleet.SaveFleet(sink).ok());
      run.snapshot_s += phase_watch.ElapsedSeconds();
      run.snapshot_bytes = sink.str().size();
      ++run.snapshots;
      next_snapshot += options.snapshot_interval;
    }
  };
  for (const auto& event : events) {
    while (next_plan <= event.t) {
      plan_batch(next_plan);
      next_plan += plan_every;
    }
    maybe_snapshot(event.t);
    phase_watch.Reset();
    auto outcome = fleet.Observe(names[event.tenant], event.t);
    RS_CHECK(outcome.ok()) << outcome.status().ToString();
    run.observe_s += phase_watch.ElapsedSeconds();
    ++run.observes;
  }
  plan_batch(serve_horizon);
  run.serve_s = serve_watch.ElapsedSeconds();

  const api::FleetSnapshot snap = fleet.Snapshot();
  run.planning_rounds = snap.planning_rounds;
  run.logs = bench::CollectActionLogs(fleet, names);
  return run;
}

void WriteJson(const Options& options, const std::vector<RunResult>& runs,
               std::size_t total_arrivals, double serve_horizon) {
  std::ofstream out(options.json_path);
  RS_CHECK(static_cast<bool>(out)) << "cannot open " << options.json_path;
  out.precision(6);
  out << "{\n"
      << "  \"bench\": \"fleet_scaling\",\n"
      << "  \"strategy\": \"" << options.strategy << "\",\n"
      << "  \"tenants\": " << options.tenants << ",\n"
      << "  \"arrivals\": " << total_arrivals << ",\n"
      << "  \"serve_horizon_s\": " << serve_horizon << ",\n"
      << "  \"mc_samples\": " << options.mc_samples << ",\n"
      << "  \"results\": [\n";
  const double base = runs.front().serve_s;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    out << "    {\"threads\": " << run.threads
        << ", \"train_s\": " << run.train_s
        << ", \"serve_s\": " << run.serve_s
        << ", \"plan_s\": " << run.plan_s
        << ", \"observe_s\": " << run.observe_s
        << ", \"plan_batches\": " << run.plan_batches
        << ", \"planning_rounds\": " << run.planning_rounds
        << ", \"plans_per_s\": "
        << static_cast<double>(run.planning_rounds) / run.serve_s;
    if (options.snapshot_interval > 0.0) {
      // Gated, lower is better: bench_gate.py compares every metric the
      // baseline row carries.
      out << ", \"snapshot_ms\": " << 1000.0 * run.snapshot_s
          << ", \"snapshot_bytes\": " << run.snapshot_bytes
          << ", \"snapshots\": " << run.snapshots;
    }
    out << ", \"speedup\": " << base / run.serve_s << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  RS_CHECK(static_cast<bool>(out)) << "write failed: " << options.json_path;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);

  std::vector<TenantWorkload> workloads;
  std::vector<bench::Arrival> events;
  double serve_horizon = 0.0;
  for (std::size_t i = 0; i < options.tenants; ++i) {
    workloads.push_back(MakeTenantWorkload(i, options.cycles, options.qps));
    bench::AddArrivals(i, workloads[i].test, &events);
    serve_horizon = std::max(serve_horizon, workloads[i].test.horizon());
  }
  bench::SortArrivals(&events);
  std::printf("fleet_scaling: %zu tenants, %zu arrivals over %.0f s, "
              "strategy %s, R=%zu, ~%.1f QPS/tenant\n\n",
              options.tenants, events.size(), serve_horizon,
              options.strategy.c_str(), options.mc_samples, options.qps);

  std::vector<RunResult> runs;
  std::printf("%8s %10s %10s %10s %10s %14s %10s\n", "threads", "train_s",
              "serve_s", "plan_s", "observe_s", "plans_per_s", "speedup");
  for (std::size_t threads : options.threads) {
    runs.push_back(
        RunOnce(options, workloads, events, serve_horizon, threads));
    const auto& run = runs.back();
    bench::CheckActionLogParity(runs.front().logs, run.logs,
                                "across thread counts");
    std::printf("%8zu %10.3f %10.3f %10.3f %10.3f %14.0f %10.2fx\n",
                run.threads, run.train_s, run.serve_s, run.plan_s,
                run.observe_s,
                static_cast<double>(run.planning_rounds) / run.serve_s,
                runs.front().serve_s / run.serve_s);
  }

  if (!options.json_path.empty()) {
    WriteJson(options, runs, events.size(), serve_horizon);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}

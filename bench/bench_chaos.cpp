// Chaos storm over a production-shaped fleet: drives the Azure-Functions
// session of bench/serving_session.hpp (heavy-tailed per-tenant rates,
// diurnal cycle, burst windows, cloned archetype models). It is
// bench_replay's session only as far as bench_replay's --diurnal-s equals
// this bench's --serve-s: here the diurnal period is the storm window, one
// whole "day". A seeded rs::fault storm is installed over the whole
// injection-site catalogue — plan boundaries and observes fail or throw,
// forced retrains die mid-refit, snapshot writes and renames are killed —
// and the bench measures what the degradation machinery guarantees under
// fire:
//
//   availability        — fraction of plan boundaries served (real plan or
//                         last-good fallback; the contract is >= 99%, and
//                         the bench aborts below it);
//   torn_plans          — fallback boundaries that leaked a non-empty
//                         action (must be 0: a failed boundary holds the
//                         last-good plan, it never half-applies a new one);
//   fallback_fraction   — how much of the fleet ran degraded (deterministic
//                         given the storm seed, so the gate catches the
//                         breaker logic drifting);
//   recovered_fraction  — tenants back to HEALTHY after the storm lifts and
//                         a calm window lets half-open probes run.
//
// Every thread count re-runs the identical session and the bench aborts
// unless the action streams, degradation flags, per-tenant health counters,
// and fired-fault totals are byte-identical across worker counts — the
// chaos replay guarantee (same seed → same storm → same serving history,
// workers are a wall-time knob only). A final snapshot save/load round-trip
// checks that storms never leave an unloadable state file behind.
//
// Gated metrics (tools/bench_gate.py, "chaos"): availability,
// recovered_fraction (higher is better), fallback_fraction (lower is
// better). All three are deterministic given the seed; absolute
// arrivals/sec are reported, not gated.
//
// Usage:
//   bench_chaos [--tenants=100] [--target-arrivals=200000]
//               [--threads=0,1,8] [--serve-s=1800] [--plan-every=60]
//               [--plan-interval=10] [--mc=20] [--archetypes=4]
//               [--storm-seed=20220414] [--fire-prob=0.05]
//               [--calm-batches=30] [--save-every=10] [--retrain-every=7]
//               [--state-out=chaos_fleet.rsnp] [--json=BENCH_chaos.json]
//
// CI's perf-smoke invocation is in .github/workflows/ci.yml; the committed
// baseline lives at bench/baselines/BENCH_chaos.baseline.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "rs/common/stopwatch.hpp"
#include "rs/fault/fault.hpp"
#include "rs/wal/wal.hpp"
#include "serving_session.hpp"

namespace {

using namespace rs;

struct Options {
  std::size_t tenants = 100;
  double target_arrivals = 2e5;  ///< Expected total; actual is Poisson.
  std::vector<std::size_t> threads = {0, 1, 8};
  double serve_s = 1800.0;      ///< Storm window length.
  double plan_every = 60.0;     ///< PlanAll batch cadence (seconds).
  double plan_interval = 10.0;  ///< Per-tenant planning interval Δ.
  std::size_t mc_samples = 20;
  std::size_t archetypes = 4;        ///< Distinct trained models to clone.
  std::uint64_t storm_seed = 20220414;
  double fire_probability = 0.05;    ///< Per-hit fault firing probability.
  std::size_t calm_batches = 30;     ///< Post-storm recovery boundaries.
  std::size_t save_every = 10;       ///< Batches between snapshot attempts.
  std::size_t retrain_every = 7;     ///< Batches between forced retrains.
  std::string state_out = "chaos_fleet.rsnp";
  std::string json_path;  ///< Empty: stdout table only.
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--tenants=", 0) == 0) {
      options.tenants = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--target-arrivals=", 0) == 0) {
      options.target_arrivals = std::stod(value());
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads = bench::ParseSizeList(value());
    } else if (arg.rfind("--serve-s=", 0) == 0) {
      options.serve_s = std::stod(value());
    } else if (arg.rfind("--plan-every=", 0) == 0) {
      options.plan_every = std::stod(value());
    } else if (arg.rfind("--plan-interval=", 0) == 0) {
      options.plan_interval = std::stod(value());
    } else if (arg.rfind("--mc=", 0) == 0) {
      options.mc_samples = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--archetypes=", 0) == 0) {
      options.archetypes = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--storm-seed=", 0) == 0) {
      options.storm_seed = std::stoull(value());
    } else if (arg.rfind("--fire-prob=", 0) == 0) {
      options.fire_probability = std::stod(value());
    } else if (arg.rfind("--calm-batches=", 0) == 0) {
      options.calm_batches = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--save-every=", 0) == 0) {
      options.save_every = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--retrain-every=", 0) == 0) {
      options.retrain_every = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--state-out=", 0) == 0) {
      options.state_out = value();
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_path = value();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  RS_CHECK(options.tenants > 0);
  RS_CHECK(options.target_arrivals > 0.0);
  RS_CHECK(!options.threads.empty());
  RS_CHECK(options.serve_s > 300.0) << "--serve-s too short for bursts";
  RS_CHECK(options.plan_every > 0.0 && options.plan_interval > 0.0);
  RS_CHECK(options.archetypes > 0 && options.archetypes <= options.tenants);
  RS_CHECK(options.fire_probability > 0.0 && options.fire_probability < 1.0);
  RS_CHECK(!options.state_out.empty());
  return options;
}

/// One boundary's outcome in the recorded serving history.
struct BoundaryRecord {
  sim::ScalingAction action;
  bool degraded = false;
};

struct RunResult {
  std::size_t threads = 0;
  double serve_s = 0.0;  ///< Storm-window wall time (excludes calm/verify).
  std::size_t plan_batches = 0;
  std::size_t boundaries = 0;
  std::size_t boundaries_served = 0;
  std::size_t fallback_boundaries = 0;
  std::size_t torn_plans = 0;
  std::size_t rejected_observations = 0;
  std::size_t saves_attempted = 0;
  std::size_t saves_failed = 0;
  std::size_t retrains_requested = 0;
  std::size_t retrains_rejected = 0;
  std::uint64_t faults_fired = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t probes = 0;
  std::size_t tenants_recovered = 0;  ///< HEALTHY after the calm window.
  std::vector<std::vector<BoundaryRecord>> history;  ///< [tenant][boundary].
  std::vector<api::TenantHealthInfo> final_health;   ///< [tenant].
};

/// Byte-identical serving-history comparison between two runs: the chaos
/// replay guarantee (worker counts must change wall time, never the storm's
/// serving history).
void CheckParity(const RunResult& baseline, const RunResult& run) {
  RS_CHECK(baseline.faults_fired == run.faults_fired)
      << baseline.threads << " vs " << run.threads
      << " workers fired different fault counts: " << baseline.faults_fired
      << " vs " << run.faults_fired;
  RS_CHECK(baseline.boundaries_served == run.boundaries_served &&
           baseline.fallback_boundaries == run.fallback_boundaries &&
           baseline.rejected_observations == run.rejected_observations &&
           baseline.breaker_opens == run.breaker_opens &&
           baseline.probes == run.probes &&
           baseline.tenants_recovered == run.tenants_recovered)
      << baseline.threads << " vs " << run.threads
      << " workers diverged on degradation totals";
  RS_CHECK(baseline.history.size() == run.history.size());
  for (std::size_t i = 0; i < baseline.history.size(); ++i) {
    const auto& a = baseline.history[i];
    const auto& b = run.history[i];
    RS_CHECK(a.size() == b.size()) << "tenant " << i;
    for (std::size_t k = 0; k < a.size(); ++k) {
      RS_CHECK(a[k].degraded == b[k].degraded &&
               a[k].action.deletions == b[k].action.deletions &&
               a[k].action.creation_times == b[k].action.creation_times)
          << baseline.threads << " vs " << run.threads << " workers: tenant "
          << i << ", boundary " << k << " diverged";
    }
    const auto& ha = baseline.final_health[i];
    const auto& hb = run.final_health[i];
    RS_CHECK(ha.health == hb.health && ha.plan_failures == hb.plan_failures &&
             ha.fallbacks_served == hb.fallbacks_served &&
             ha.breaker_opens == hb.breaker_opens && ha.probes == hb.probes &&
             ha.retry_at == hb.retry_at)
        << baseline.threads << " vs " << run.threads << " workers: tenant "
        << i << " health diverged";
  }
}

RunResult RunOnce(const Options& options,
                  const std::vector<std::string>& names,
                  const std::vector<std::string>& buffers,
                  const std::vector<bench::Arrival>& events,
                  std::size_t threads) {
  RunResult run;
  run.threads = threads;
  run.history.resize(names.size());
  const double horizon = bench::kAzureTrainS + options.serve_s;

  api::ScalerFleet fleet(threads);
  // Synchronous retrains: the refit runs inline at the enqueue point, so
  // swap timing — and therefore the whole serving history — is
  // deterministic under any plan-worker count.
  api::FreshnessPolicy freshness;
  freshness.pipeline.dt = bench::kSessionBinS;
  freshness.pipeline.forecast_horizon = horizon;
  freshness.min_retrain_interval = options.plan_every;
  freshness.retrain_workers = 0;
  RS_CHECK(fleet.EnableFreshness(freshness).ok());
  api::RobustnessPolicy robustness;
  // Two strikes and short backoffs: independent per-boundary faults at
  // bench probabilities rarely land three in a row, so the default
  // threshold would leave the quarantine/probe path cold. This way the
  // storm drives the full state machine and the calm window still has
  // room for every probe to fire.
  robustness.breaker_threshold = 2;
  robustness.backoff_base = 2.0 * options.plan_every;
  robustness.backoff_max = 10.0 * options.plan_every;
  fleet.ConfigureRobustness(robustness);
  bench::RegisterClones(&fleet, names, buffers);

  const auto plan_batch = [&](api::ScalerFleet* f, RunResult* r, double t) {
    for (auto& plan : f->PlanAll(t)) {
      ++r->boundaries;
      if (plan.status.ok()) ++r->boundaries_served;
      if (plan.degraded) {
        ++r->fallback_boundaries;
        // A fallback boundary holds the last-good plan; a non-empty action
        // here would be a torn (half-applied) plan escaping the gate.
        if (plan.action.deletions != 0 || !plan.action.creation_times.empty())
          ++r->torn_plans;
      }
      const std::size_t tenant = static_cast<std::size_t>(
          std::find(names.begin(), names.end(), plan.tenant) - names.begin());
      r->history[tenant].push_back({std::move(plan.action), plan.degraded});
    }
    ++r->plan_batches;
  };

  // The storm: every serving-path, retrain, and persist site is armed with
  // the seeded random schedule while the whole arrival stream is served.
  Stopwatch watch;
  {
    fault::StormOptions storm;
    storm.fire_probability = options.fire_probability;
    fault::FaultPlan plan = fault::MakeStormPlan(options.storm_seed, storm);
    // Sustained outages on top of the random drizzle: every 10th tenant's
    // planner dies partway through the storm (a period-1 rule fails every
    // boundary until the storm lifts). Independent per-boundary faults at
    // bench probabilities rarely land `breaker_threshold` strikes in a
    // row, so without these the quarantine/half-open-probe machinery
    // would sit cold all run.
    for (std::size_t i = 5; i < names.size(); i += 10) {
      fault::FaultRule rule;
      rule.site = "fleet.plan";
      rule.scope = names[i];
      rule.hit = 5 + i % 11;
      rule.period = 1;
      rule.fault.code = StatusCode::kRuntimeError;
      plan.rules.push_back(std::move(rule));
    }
    fault::ScopedFaultInjection inject(std::move(plan));
    double next_plan = bench::kAzureTrainS + options.plan_every;
    for (const auto& event : events) {
      while (next_plan <= event.t) {
        plan_batch(&fleet, &run, next_plan);
        if (options.save_every > 0 &&
            run.plan_batches % options.save_every == 0) {
          ++run.saves_attempted;
          if (!fleet.SaveFleetToFile(options.state_out).ok())
            ++run.saves_failed;
        }
        if (options.retrain_every > 0 &&
            run.plan_batches % options.retrain_every == 0) {
          ++run.retrains_requested;
          if (!fleet.RequestRetrain(names[run.plan_batches % names.size()])
                   .ok())
            ++run.retrains_rejected;
        }
        next_plan += options.plan_every;
      }
      // Injected observe faults reject the arrival deterministically; drop
      // the datapoint and keep serving, the way a front end would.
      if (!fleet.Observe(names[event.tenant], event.t).ok())
        ++run.rejected_observations;
    }
    plan_batch(&fleet, &run, horizon);
    run.serve_s = watch.ElapsedSeconds();
    // Journal side-channel: the storm catalogue includes the wal.* sites,
    // which the main fleet cannot hit (EnableFreshness and the journal tap
    // are mutually exclusive). A tiny journaled fleet runs inside the storm
    // scope instead — single-threaded, re-run from a fresh directory until
    // every wal site has been exercised — so the fault-schedule draws are
    // identical under every worker count and faults_fired parity holds.
    {
      namespace fs = std::filesystem;
      const fs::path wal_dir = options.state_out + ".walside";
      for (std::size_t session = 0; session < 50; ++session) {
        std::error_code ec;
        fs::remove_all(wal_dir, ec);
        wal::FleetJournal journal;
        wal::JournalPolicy policy;
        policy.fsync = wal::FsyncPolicy::kEveryRecord;
        policy.segment_bytes = 256;  // Rotate every couple of records.
        if (!journal.Open(wal_dir.string(), policy).ok()) continue;
        api::ScalerFleet side(0);
        bench::RegisterClones(&side, {"wal-0", "wal-1"}, buffers);
        if (!wal::EnableJournal(&side, &journal).ok()) continue;
        for (std::size_t step = 1; step <= 8 && journal.status().ok();
             ++step) {
          const double t = bench::kAzureTrainS + static_cast<double>(step);
          (void)side.Observe("wal-0", t - 0.5);
          (void)side.Observe("wal-1", t - 0.25);
          (void)side.PlanAll(t);
        }
        journal.Detach();
        const auto side_stats = inject.Stats();
        const auto hit = [&side_stats](const char* site) {
          const auto it = side_stats.find(site);
          return it != side_stats.end() && it->second.hits > 0;
        };
        if (hit("wal.append") && hit("wal.fsync") && hit("wal.rotate")) break;
      }
      std::error_code ec;
      fs::remove_all(wal_dir, ec);
    }
    run.faults_fired = inject.total_fired();
    // The storm must actually roll over the whole catalogue: a site with
    // zero hits means the scenario stopped exercising that path.
    const auto stats = inject.Stats();
    for (const auto& site : fault::RegisteredSites()) {
      const auto it = stats.find(site.name);
      RS_CHECK(it != stats.end() && it->second.hits > 0)
          << "site " << site.name << " was never exercised by the storm";
    }
  }

  // Calm window: the storm is disarmed, the clock keeps ticking, and the
  // half-open probes bring quarantined tenants back.
  for (std::size_t k = 1; k <= options.calm_batches; ++k) {
    plan_batch(&fleet, &run, horizon + static_cast<double>(k) *
                                            options.plan_every);
  }

  const auto snapshot = fleet.Snapshot();
  run.breaker_opens = snapshot.breaker_opens;
  for (const auto& name : names) {
    auto health = fleet.Health(name);
    RS_CHECK(health.ok()) << health.status().ToString();
    run.probes += health->probes;
    if (health->health == api::TenantHealth::kHealthy) ++run.tenants_recovered;
    run.final_health.push_back(std::move(health).ValueOrDie());
  }

  // Storms must never leave an unloadable state file behind: the last
  // snapshot on disk (written mid-storm or now) restores cleanly,
  // breaker state and all.
  RS_CHECK(fleet.SaveFleetToFile(options.state_out).ok());
  auto restored = api::ScalerFleet::LoadFleetFromFile(options.state_out);
  RS_CHECK(restored.ok()) << restored.status().ToString();
  RS_CHECK(restored->Snapshot().tenants == names.size());

  const double availability = static_cast<double>(run.boundaries_served) /
                              static_cast<double>(run.boundaries);
  RS_CHECK(availability >= 0.99)
      << "availability " << availability << " under the storm";
  RS_CHECK(run.torn_plans == 0) << run.torn_plans << " torn plans";
  return run;
}

void WriteJson(const Options& options, const std::vector<RunResult>& runs,
               std::size_t total_arrivals) {
  std::ofstream out(options.json_path);
  RS_CHECK(static_cast<bool>(out)) << "cannot open " << options.json_path;
  out.precision(6);
  out << "{\n"
      << "  \"bench\": \"chaos\",\n"
      << "  \"tenants\": " << options.tenants << ",\n"
      << "  \"archetypes\": " << options.archetypes << ",\n"
      << "  \"arrivals\": " << total_arrivals << ",\n"
      << "  \"serve_window_s\": " << options.serve_s << ",\n"
      << "  \"plan_every_s\": " << options.plan_every << ",\n"
      << "  \"storm_seed\": " << options.storm_seed << ",\n"
      << "  \"fire_probability\": " << options.fire_probability << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    const auto boundaries = static_cast<double>(run.boundaries);
    out << "    {\"threads\": " << run.threads
        << ", \"serve_s\": " << run.serve_s << ", \"arrivals_per_s\": "
        << static_cast<double>(total_arrivals) / run.serve_s
        << ", \"boundaries\": " << run.boundaries << ", \"availability\": "
        << static_cast<double>(run.boundaries_served) / boundaries
        << ", \"fallback_fraction\": "
        << static_cast<double>(run.fallback_boundaries) / boundaries
        << ", \"torn_plans\": " << run.torn_plans
        << ", \"faults_fired\": " << run.faults_fired
        << ", \"rejected_observations\": " << run.rejected_observations
        << ", \"breaker_opens\": " << run.breaker_opens
        << ", \"probes\": " << run.probes << ", \"recovered_fraction\": "
        << static_cast<double>(run.tenants_recovered) /
               static_cast<double>(options.tenants)
        << ", \"saves_attempted\": " << run.saves_attempted
        << ", \"saves_failed\": " << run.saves_failed
        << ", \"retrains_requested\": " << run.retrains_requested
        << ", \"retrains_rejected\": " << run.retrains_rejected
        << ", \"plan_batches\": " << run.plan_batches << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  RS_CHECK(static_cast<bool>(out)) << "write failed: " << options.json_path;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);

  // The storm window is one diurnal period.
  const std::vector<bench::Arrival> events =
      bench::AzureArrivals(options.tenants, options.target_arrivals,
                           options.serve_s, options.serve_s);

  Stopwatch train_watch;
  bench::ArchetypeOptions archetype;
  archetype.train_s = bench::kAzureTrainS;
  archetype.horizon = bench::kAzureTrainS + options.serve_s;
  archetype.plan_interval = options.plan_interval;
  archetype.mc_samples = options.mc_samples;
  const std::vector<std::string> buffers =
      bench::TrainArchetypes(options.archetypes, archetype);
  const std::vector<std::string> names = bench::TenantNames(options.tenants);
  std::printf(
      "chaos: %zu tenants (%zu archetypes, trained in %.2f s), %zu arrivals "
      "over %.0f s serving, storm seed %llu (p=%.3f), PlanAll every %.0f s, "
      "R=%zu\n\n",
      options.tenants, options.archetypes, train_watch.ElapsedSeconds(),
      events.size(), options.serve_s,
      static_cast<unsigned long long>(options.storm_seed),
      options.fire_probability, options.plan_every, options.mc_samples);

  std::vector<RunResult> runs;
  std::printf("%8s %10s %8s %10s %8s %8s %8s %10s %6s\n", "threads",
              "serve_s", "avail", "fallback", "fired", "opens", "probes",
              "recovered", "torn");
  for (std::size_t threads : options.threads) {
    runs.push_back(RunOnce(options, names, buffers, events, threads));
    const auto& run = runs.back();
    CheckParity(runs.front(), run);
    const auto boundaries = static_cast<double>(run.boundaries);
    std::printf(
        "%8zu %10.3f %7.4f%% %9.4f%% %8llu %8llu %8llu %9.1f%% %6zu\n",
        run.threads, run.serve_s,
        100.0 * static_cast<double>(run.boundaries_served) / boundaries,
        100.0 * static_cast<double>(run.fallback_boundaries) / boundaries,
        static_cast<unsigned long long>(run.faults_fired),
        static_cast<unsigned long long>(run.breaker_opens),
        static_cast<unsigned long long>(run.probes),
        100.0 * static_cast<double>(run.tenants_recovered) /
            static_cast<double>(options.tenants),
        run.torn_plans);
  }

  if (!options.json_path.empty()) {
    WriteJson(options, runs, events.size());
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}

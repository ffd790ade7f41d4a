// Production-shaped trace capture + replay throughput: how much does the
// rs::trace Recorder tax live serving, and how fast does trace::Replay()
// re-drive a capture relative to the live session it verifies?
//
// The session comes from bench/serving_session.hpp: Azure-Functions-shaped
// arrivals (heavy-tailed lognormal base rates, so a few hot functions
// dominate and a long tail idles along; a diurnal sinusoid of period
// --diurnal-s with per-tenant phase; short 4-10x burst windows) served by
// clones of a few trained archetypes (Scaler::SaveState /
// ScalerBuilder::RestoreState buffers), so 100+ tenants set up in
// milliseconds instead of 100 trainings.
//
// Per worker-thread count the bench runs the same serving session three
// ways and self-checks parity before reporting:
//   1. tap off  — plain fleet serving (the control);
//   2. tap on   — the identical session with a trace::Recorder attached;
//   3. replay   — trace::Replay() of the capture, which verifies every
//                 recorded outcome/action/clock byte-for-byte as it goes.
// The tap-on run must emit byte-identical actions to the control (and to
// the first thread count's runs — the fleet parity guarantee), and the
// replay must report zero divergence; the bench aborts otherwise.
//
// Gated metrics are within-run ratios (machine-portable, see
// tools/bench_gate.py): tap_overhead (serve_on/serve_off wall time),
// replay_vs_live (replay/serve_on), and bytes_per_event (capture size over
// event count — format bloat, not speed). Absolute arrivals/sec are
// reported, not gated.
//
// Usage:
//   bench_replay [--tenants=100] [--target-arrivals=1000000]
//                [--threads=0,4] [--serve-s=3600] [--diurnal-s=3600]
//                [--plan-every=60] [--plan-interval=10] [--mc=20]
//                [--archetypes=4] [--capture-out=session.rstrace]
//                [--json=BENCH_replay.json]
//
// --capture-out writes the last run's capture to disk for inspection with
// `rs_snapshot <file>` or `rs_trace info <file>` (see README.md). The
// defaults synthesize ~1M arrivals; CI's perf-smoke invocation is in
// .github/workflows/ci.yml and the recipe in EXPERIMENTS.md.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "rs/common/stopwatch.hpp"
#include "rs/trace/trace.hpp"
#include "serving_session.hpp"

namespace {

using namespace rs;

struct Options {
  std::size_t tenants = 100;
  double target_arrivals = 1e6;  ///< Expected total; actual is Poisson.
  std::vector<std::size_t> threads = {0, 4};
  double serve_s = 3600.0;       ///< Serving window length.
  double diurnal_s = 3600.0;     ///< Compressed "day" for the sinusoid.
  double plan_every = 60.0;      ///< PlanAll batch cadence (seconds).
  double plan_interval = 10.0;   ///< Per-tenant planning interval Δ.
  std::size_t mc_samples = 20;
  std::size_t archetypes = 4;    ///< Distinct trained models to clone.
  std::string capture_out;       ///< Empty: don't persist a capture.
  std::string json_path;         ///< Empty: stdout table only.
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
    } else if (arg.rfind("--diurnal-s=", 0) == 0) {
      options.diurnal_s = std::stod(value());
    } else if (arg.rfind("--plan-every=", 0) == 0) {
      options.plan_every = std::stod(value());
    } else if (arg.rfind("--plan-interval=", 0) == 0) {
      options.plan_interval = std::stod(value());
    } else if (arg.rfind("--mc=", 0) == 0) {
      options.mc_samples = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--archetypes=", 0) == 0) {
      options.archetypes = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--capture-out=", 0) == 0) {
      options.capture_out = value();
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
  RS_CHECK(options.diurnal_s > 0.0);
  RS_CHECK(options.plan_every > 0.0 && options.plan_interval > 0.0);
  RS_CHECK(options.archetypes > 0 && options.archetypes <= options.tenants);
  return options;
}

struct DriveStats {
  double serve_s = 0.0;
  std::size_t plan_batches = 0;
};

/// The serving session every mode re-runs: the merged arrival stream with a
/// PlanAll batch every plan_every seconds, closed by a final batch at the
/// horizon. Identical call sequence across tap-off/tap-on runs by
/// construction, which is what makes their action logs comparable.
DriveStats Drive(api::ScalerFleet* fleet,
                 const std::vector<std::string>& names,
                 const std::vector<bench::Arrival>& events, double horizon,
                 double plan_every) {
  DriveStats stats;
  double next_plan = bench::kAzureTrainS + plan_every;
  Stopwatch watch;
  const auto plan_batch = [&](double t) {
    for (const auto& plan : fleet->PlanAll(t)) {
      RS_CHECK(plan.status.ok())
          << plan.tenant << ": " << plan.status.ToString();
    }
    ++stats.plan_batches;
  };
  for (const auto& event : events) {
    while (next_plan <= event.t) {
      plan_batch(next_plan);
      next_plan += plan_every;
    }
    auto outcome = fleet->Observe(names[event.tenant], event.t);
    RS_CHECK(outcome.ok()) << outcome.status().ToString();
  }
  plan_batch(horizon);
  stats.serve_s = watch.ElapsedSeconds();
  return stats;
}

struct RunResult {
  std::size_t threads = 0;
  double serve_off_s = 0.0;  ///< Control: no tap attached.
  double serve_on_s = 0.0;   ///< Same session with the Recorder attached.
  double replay_s = 0.0;     ///< trace::Replay() of the capture.
  double attach_ms = 0.0;    ///< Recorder::Attach (tenant snapshots).
  double encode_ms = 0.0;    ///< Capture::ToBytes (container encode).
  std::size_t plan_batches = 0;
  std::size_t events = 0;        ///< Capture event count.
  std::size_t capture_bytes = 0; ///< Encoded container size.
  bench::ActionLogs logs;
};

RunResult RunOnce(const Options& options,
                  const std::vector<std::string>& names,
                  const std::vector<std::string>& buffers,
                  const std::vector<bench::Arrival>& events,
                  std::size_t threads, trace::Capture* capture_out) {
  RunResult run;
  run.threads = threads;
  const double horizon = bench::kAzureTrainS + options.serve_s;
  Stopwatch watch;

  // 1. Control: the session with no tap.
  bench::ActionLogs control;
  {
    api::ScalerFleet fleet(threads);
    bench::RegisterClones(&fleet, names, buffers, /*keep_action_log=*/true);
    const DriveStats stats =
        Drive(&fleet, names, events, horizon, options.plan_every);
    run.serve_off_s = stats.serve_s;
    run.plan_batches = stats.plan_batches;
    control = bench::CollectActionLogs(fleet, names);
  }

  // 2. The identical session with a Recorder attached.
  trace::Capture capture;
  {
    api::ScalerFleet fleet(threads);
    bench::RegisterClones(&fleet, names, buffers, /*keep_action_log=*/true);
    trace::Recorder recorder("bench_replay synthetic session");
    watch.Reset();
    RS_CHECK(recorder.Attach(&fleet).ok());
    run.attach_ms = 1000.0 * watch.ElapsedSeconds();
    const DriveStats stats =
        Drive(&fleet, names, events, horizon, options.plan_every);
    run.serve_on_s = stats.serve_s;
    recorder.Detach();
    capture = recorder.TakeCapture();
    run.logs = bench::CollectActionLogs(fleet, names);
  }
  bench::CheckActionLogParity(control, run.logs, "tap-on vs tap-off");
  run.events = capture.events.size();

  watch.Reset();
  auto bytes = capture.ToBytes();
  RS_CHECK(bytes.ok()) << bytes.status().ToString();
  run.encode_ms = 1000.0 * watch.ElapsedSeconds();
  run.capture_bytes = bytes->size();

  // 3. Replay the capture; Replay() verifies byte parity as it re-drives.
  trace::ReplayOptions replay_options;
  replay_options.worker_threads = threads;
  watch.Reset();
  auto report = trace::Replay(capture, replay_options);
  run.replay_s = watch.ElapsedSeconds();
  RS_CHECK(report.ok()) << report.status().ToString();
  RS_CHECK(!report->diverged)
      << "replay diverged at event #" << report->divergence_event << ": "
      << report->detail;
  RS_CHECK(report->events_applied == run.events);

  if (capture_out != nullptr) *capture_out = std::move(capture);
  return run;
}

void WriteJson(const Options& options, const std::vector<RunResult>& runs,
               std::size_t total_arrivals) {
  std::ofstream out(options.json_path);
  RS_CHECK(static_cast<bool>(out)) << "cannot open " << options.json_path;
  out.precision(6);
  out << "{\n"
      << "  \"bench\": \"replay\",\n"
      << "  \"tenants\": " << options.tenants << ",\n"
      << "  \"archetypes\": " << options.archetypes << ",\n"
      << "  \"arrivals\": " << total_arrivals << ",\n"
      << "  \"serve_window_s\": " << options.serve_s << ",\n"
      << "  \"plan_every_s\": " << options.plan_every << ",\n"
      << "  \"mc_samples\": " << options.mc_samples << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    out << "    {\"threads\": " << run.threads
        << ", \"serve_off_s\": " << run.serve_off_s
        << ", \"serve_on_s\": " << run.serve_on_s
        << ", \"replay_s\": " << run.replay_s
        << ", \"tap_overhead\": " << run.serve_on_s / run.serve_off_s
        << ", \"replay_vs_live\": " << run.replay_s / run.serve_on_s
        << ", \"arrivals_per_s\": "
        << static_cast<double>(total_arrivals) / run.serve_off_s
        << ", \"events\": " << run.events
        << ", \"capture_bytes\": " << run.capture_bytes
        << ", \"bytes_per_event\": "
        << static_cast<double>(run.capture_bytes) /
               static_cast<double>(run.events)
        << ", \"plan_batches\": " << run.plan_batches
        << ", \"attach_ms\": " << run.attach_ms
        << ", \"encode_ms\": " << run.encode_ms << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  RS_CHECK(static_cast<bool>(out)) << "write failed: " << options.json_path;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);

  const std::vector<bench::Arrival> events =
      bench::AzureArrivals(options.tenants, options.target_arrivals,
                           options.serve_s, options.diurnal_s);

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
      "replay: %zu tenants (%zu archetypes, trained in %.2f s), "
      "%zu arrivals over %.0f s serving (target %.0f), PlanAll every "
      "%.0f s, R=%zu\n\n",
      options.tenants, options.archetypes, train_watch.ElapsedSeconds(),
      events.size(), options.serve_s, options.target_arrivals,
      options.plan_every, options.mc_samples);

  std::vector<RunResult> runs;
  trace::Capture last_capture;
  std::printf("%8s %12s %12s %8s %10s %8s %12s %10s\n", "threads",
              "serve_off_s", "serve_on_s", "tap", "replay_s", "r/live",
              "capture_MB", "B/event");
  for (std::size_t threads : options.threads) {
    runs.push_back(RunOnce(options, names, buffers, events, threads,
                           &last_capture));
    const auto& run = runs.back();
    bench::CheckActionLogParity(runs.front().logs, run.logs,
                                "across thread counts");
    std::printf("%8zu %12.3f %12.3f %7.3fx %10.3f %7.3fx %12.2f %10.1f\n",
                run.threads, run.serve_off_s, run.serve_on_s,
                run.serve_on_s / run.serve_off_s, run.replay_s,
                run.replay_s / run.serve_on_s,
                static_cast<double>(run.capture_bytes) / 1e6,
                static_cast<double>(run.capture_bytes) /
                    static_cast<double>(run.events));
  }

  if (!options.capture_out.empty()) {
    std::ofstream out(options.capture_out, std::ios::binary);
    RS_CHECK(static_cast<bool>(out)) << "cannot open " << options.capture_out;
    RS_CHECK(last_capture.Save(out).ok());
    std::printf("\nwrote capture %s\n", options.capture_out.c_str());
  }
  if (!options.json_path.empty()) {
    WriteJson(options, runs, events.size());
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}

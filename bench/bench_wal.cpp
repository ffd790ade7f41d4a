// Write-ahead journal overhead: the same deterministic serving session —
// a fleet of archetype clones from bench/serving_session.hpp (trained on a
// 1800 s window with Δ = 2 s), one observe per tenant per step, then a
// PlanAll batch — run once with no journal attached (the control)
// and once per fsync policy {none, every-64, every-record}, timing the
// serving loop only. Reported per policy:
//
//   append_overhead  — serve_on_s / serve_off_s, the journal's whole
//                      serving tax (encode + frame + CRC + copy into the
//                      mapped segment + policy fsyncs) as a within-run
//                      ratio, machine cancelled;
//   bytes_per_event  — on-disk journal bytes / events appended (the wire
//                      format's cost; moves only when the encoding or the
//                      framing changes). Segment layout 2 frames the bare
//                      trace event: 78.7 B here, 12 B per record below
//                      layout 1's nested persist container (90.7 B);
//   fsyncs           — how many fsync(2) calls the policy actually issued
//                      (every-record ~= records, every-64 ~= records/64,
//                      none = rotations + the final explicit Sync only).
//
// Before anything is timed, a self-check session runs each policy through
// the real crash path: serve, drop the fleet and journal with no shutdown,
// reopen, Recover() — which re-drives the tail through trace::Replay and
// verifies every action byte-identically — and continue. The bench aborts
// if recovery fails, so the numbers below are always measured on a
// configuration whose durability story actually holds. After each timed
// run the journal is recovered once more and must replay every appended
// event.
//
// Gated metrics (tools/bench_gate.py, "wal"): append_overhead and
// bytes_per_event per policy, both lower-is-better. Absolute events/sec
// are reported, gated only with --gate-absolute.
//
// Usage:
//   bench_wal [--tenants=16] [--steps=400] [--mc=20] [--archetypes=4]
//             [--segment-mb=4] [--dir=bench_wal.dir]
//             [--json=BENCH_wal.json]
//
// CI's perf-smoke invocation is in .github/workflows/ci.yml; the committed
// baseline lives at bench/baselines/BENCH_wal.baseline.json.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "bench_common.hpp"
#include "rs/common/stopwatch.hpp"
#include "rs/wal/wal.hpp"
#include "serving_session.hpp"

namespace {

using namespace rs;

/// Training window of the archetype models; serving starts at this time.
constexpr double kTrainS = 1800.0;

struct Options {
  std::size_t tenants = 16;
  std::size_t steps = 400;
  std::size_t mc_samples = 20;
  std::size_t archetypes = 4;
  std::uint64_t segment_mb = 4;
  std::string dir = "bench_wal.dir";
  std::string json_path;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--tenants=", 0) == 0) {
      options.tenants = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--steps=", 0) == 0) {
      options.steps = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--mc=", 0) == 0) {
      options.mc_samples = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--archetypes=", 0) == 0) {
      options.archetypes = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--segment-mb=", 0) == 0) {
      options.segment_mb = std::stoull(value());
    } else if (arg.rfind("--dir=", 0) == 0) {
      options.dir = value();
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_path = value();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  RS_CHECK(options.tenants > 0 && options.steps >= 8);
  RS_CHECK(options.archetypes > 0 && options.archetypes <= options.tenants);
  RS_CHECK(options.segment_mb > 0);
  return options;
}

api::ScalerFleet BuildFleet(const Options& options,
                            const std::vector<std::string>& buffers) {
  api::ScalerFleet fleet(0);
  bench::RegisterClones(&fleet, bench::TenantNames(options.tenants), buffers);
  return fleet;
}

/// Serves steps [first, last): one observe per tenant, then one PlanAll.
/// Appends (tenants + 1) journal events per step when a tap is attached.
void ServeSteps(api::ScalerFleet* fleet, const Options& options,
                std::size_t first, std::size_t last) {
  for (std::size_t step = first; step < last; ++step) {
    const double now = kTrainS + 2.0 * static_cast<double>(step + 1);
    for (std::size_t i = 0; i < options.tenants; ++i) {
      RS_CHECK(fleet->Observe("fn-" + std::to_string(i),
                              now - 1.0 + 0.001 * static_cast<double>(i))
                   .ok());
    }
    for (const auto& plan : fleet->PlanAll(now)) {
      RS_CHECK(plan.status.ok()) << plan.status.ToString();
    }
  }
}

/// Record bytes of every segment: the live segment is preallocated, so its
/// file size would count padding.
std::uint64_t JournalBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) {
      auto segment = wal::InspectSegmentFile(entry.path().string());
      RS_CHECK(segment.ok()) << segment.status().ToString();
      total += segment->bytes;
    }
  }
  return total;
}

struct PolicyResult {
  std::string policy;           ///< "off", "none", "every-64", "every-record".
  double serve_s = 0.0;
  double append_overhead = 0.0; ///< serve_on / serve_off (1.0 for "off").
  std::uint64_t events = 0;     ///< Journal records appended (0 for "off").
  double bytes_per_event = 0.0;
  std::uint64_t fsyncs = 0;
  std::uint64_t segments = 0;
};

wal::JournalPolicy MakePolicy(const Options& options, wal::FsyncPolicy fsync) {
  wal::JournalPolicy policy;
  policy.fsync = fsync;
  policy.fsync_every_n = 64;
  policy.segment_bytes = options.segment_mb << 20;
  return policy;
}

/// The pre-timing self-check: serve half the steps journaled, "crash"
/// (drop both objects, no shutdown), recover, and serve the rest — the
/// bench only times configurations whose recovery story verifiably holds.
void SelfCheck(const Options& options, const std::vector<std::string>& buffers,
               wal::FsyncPolicy fsync) {
  namespace fs = std::filesystem;
  const std::string dir = options.dir + "/selfcheck";
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  Options small = options;
  small.steps = 8;
  {
    wal::FleetJournal journal;
    const Status opened = journal.Open(dir, MakePolicy(small, fsync));
    RS_CHECK(opened.ok()) << opened.ToString();
    api::ScalerFleet fleet = BuildFleet(small, buffers);
    RS_CHECK(wal::EnableJournal(&fleet, &journal).ok());
    ServeSteps(&fleet, small, 0, small.steps / 2);
    // Scope exit with no Detach, no Sync, no checkpoint: the in-process
    // crash. kNone still recovers — the page cache survives a dead
    // process; fsync only matters for power loss.
  }
  wal::FleetJournal journal;
  const Status opened = journal.Open(dir, MakePolicy(small, fsync));
  RS_CHECK(opened.ok()) << opened.ToString();
  auto fleet = journal.Recover();
  RS_CHECK(fleet.ok()) << fleet.status().ToString();
  RS_CHECK(journal.Attach(&*fleet).ok());
  ServeSteps(&*fleet, small, small.steps / 2, small.steps);
  RS_CHECK(journal.status().ok()) << journal.status().ToString();
  const std::uint64_t expected =
      small.tenants +
      static_cast<std::uint64_t>(small.steps) * (small.tenants + 1);
  RS_CHECK(journal.last_lsn() == expected)
      << "self-check lost or duplicated records: LSN " << journal.last_lsn()
      << ", expected " << expected;
  fs::remove_all(dir, ignored);
}

PolicyResult RunOff(const Options& options,
                    const std::vector<std::string>& buffers) {
  PolicyResult result;
  result.policy = "off";
  result.append_overhead = 1.0;
  api::ScalerFleet fleet = BuildFleet(options, buffers);
  Stopwatch watch;
  ServeSteps(&fleet, options, 0, options.steps);
  result.serve_s = watch.ElapsedSeconds();
  return result;
}

PolicyResult RunPolicy(const Options& options,
                       const std::vector<std::string>& buffers,
                       wal::FsyncPolicy fsync, double serve_off_s) {
  SelfCheck(options, buffers, fsync);

  namespace fs = std::filesystem;
  const std::string dir = options.dir + "/timed";
  std::error_code ignored;
  fs::remove_all(dir, ignored);

  PolicyResult result;
  result.policy = wal::FsyncPolicyName(fsync);
  wal::FleetJournal journal;
  const Status opened = journal.Open(dir, MakePolicy(options, fsync));
  RS_CHECK(opened.ok()) << opened.ToString();
  api::ScalerFleet fleet = BuildFleet(options, buffers);
  RS_CHECK(wal::EnableJournal(&fleet, &journal).ok());
  const std::uint64_t registered = journal.last_lsn();

  Stopwatch watch;
  ServeSteps(&fleet, options, 0, options.steps);
  result.serve_s = watch.ElapsedSeconds();
  RS_CHECK(journal.status().ok()) << journal.status().ToString();
  RS_CHECK(journal.Sync().ok());
  journal.Detach();

  result.events = journal.last_lsn() - registered;
  RS_CHECK(result.events ==
           static_cast<std::uint64_t>(options.steps) * (options.tenants + 1))
      << "journal dropped records";
  result.append_overhead = result.serve_s / serve_off_s;
  result.fsyncs = journal.fsyncs();
  result.bytes_per_event = static_cast<double>(JournalBytes(dir)) /
                           static_cast<double>(journal.last_lsn());

  // Post-run artifact check: everything appended must recover and replay.
  wal::FleetJournal reopened;
  const Status reopen = reopened.Open(dir, MakePolicy(options, fsync));
  RS_CHECK(reopen.ok()) << reopen.ToString();
  RS_CHECK(reopened.open_report().truncated_bytes == 0);
  result.segments = reopened.open_report().segments;
  auto recovered = reopened.Recover();
  RS_CHECK(recovered.ok()) << recovered.status().ToString();
  RS_CHECK(reopened.last_lsn() == journal.last_lsn());
  fs::remove_all(dir, ignored);
  return result;
}

void WriteJson(const Options& options, const std::vector<PolicyResult>& runs,
               std::uint64_t events_per_run) {
  std::ofstream out(options.json_path);
  RS_CHECK(static_cast<bool>(out)) << "cannot open " << options.json_path;
  out.precision(6);
  out << "{\n"
      << "  \"bench\": \"wal\",\n"
      << "  \"tenants\": " << options.tenants << ",\n"
      << "  \"steps\": " << options.steps << ",\n"
      << "  \"events\": " << events_per_run << ",\n"
      << "  \"segment_mb\": " << options.segment_mb << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    out << "    {\"policy\": \"" << run.policy << "\", \"serve_s\": "
        << run.serve_s << ", \"events_per_s\": "
        << static_cast<double>(events_per_run) / run.serve_s
        << ", \"append_overhead\": " << run.append_overhead
        << ", \"bytes_per_event\": " << run.bytes_per_event
        << ", \"fsyncs\": " << run.fsyncs
        << ", \"segments\": " << run.segments << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  RS_CHECK(static_cast<bool>(out)) << "write failed: " << options.json_path;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);

  Stopwatch train_watch;
  bench::ArchetypeOptions archetype;
  archetype.train_s = kTrainS;
  archetype.horizon = 2.0 * kTrainS;
  archetype.plan_interval = 2.0;
  archetype.mc_samples = options.mc_samples;
  const std::vector<std::string> buffers =
      bench::TrainArchetypes(options.archetypes, archetype);
  const std::uint64_t events_per_run =
      static_cast<std::uint64_t>(options.steps) * (options.tenants + 1);
  std::printf(
      "wal: %zu tenants (%zu archetypes, trained in %.2f s), %zu steps = "
      "%llu journal events per run, %llu MiB segments\n\n",
      options.tenants, options.archetypes, train_watch.ElapsedSeconds(),
      options.steps, static_cast<unsigned long long>(events_per_run),
      static_cast<unsigned long long>(options.segment_mb));

  std::vector<PolicyResult> runs;
  runs.push_back(RunOff(options, buffers));
  const double serve_off_s = runs.front().serve_s;
  for (const auto fsync :
       {wal::FsyncPolicy::kNone, wal::FsyncPolicy::kEveryN,
        wal::FsyncPolicy::kEveryRecord}) {
    runs.push_back(RunPolicy(options, buffers, fsync, serve_off_s));
  }

  std::printf("%14s %10s %10s %10s %12s %8s %8s\n", "policy", "serve_s",
              "events/s", "overhead", "B/event", "fsyncs", "segs");
  for (const auto& run : runs) {
    std::printf("%14s %10.3f %10.0f %9.3fx %12.1f %8llu %8llu\n",
                run.policy.c_str(), run.serve_s,
                static_cast<double>(events_per_run) / run.serve_s,
                run.append_overhead, run.bytes_per_event,
                static_cast<unsigned long long>(run.fsyncs),
                static_cast<unsigned long long>(run.segments));
  }

  std::error_code ignored;
  std::filesystem::remove_all(options.dir, ignored);
  if (!options.json_path.empty()) {
    WriteJson(options, runs, events_per_run);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}

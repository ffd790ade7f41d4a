// Write-ahead journal overhead: the same deterministic serving session —
// a fleet of archetype clones from bench/serving_session.hpp (trained on a
// 1800 s window with Δ = 2 s), one observe per tenant per step, then a
// PlanAll batch — run once with no journal attached (the control)
// and once per fsync policy {none, every-64, every-record}, timing the
// serving loop only. Each row is the fastest of kPasses passes, each on a
// fresh fleet and, when journaled, a fresh journal directory: one pass
// serves about 10 ms under "off" and "none", too short to outlast the
// machine's noise on its own. A pass serves every row once, so all rows
// sample the same stretch of the machine's fast and slow phases. Reported
// per policy:
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
//                      none = rotations + the final explicit Sync only);
//   caller_minflt_per_record
//                    — minor page faults the serving thread took over a
//                      timed pass (getrusage RUSAGE_THREAD; the fewest of
//                      the row's passes), minus those of the journal-off
//                      control over the same steps, per
//                      record: the first stores into segment pages the
//                      journal's helper thread has not populated. A count,
//                      not a time, so it holds on any machine.
//
// Before anything is timed, a self-check session runs each policy through
// the real crash path: serve, drop the fleet and journal with no shutdown,
// reopen, Recover() — which re-drives the tail through trace::Replay and
// verifies every action byte-identically — and continue. The bench aborts
// if recovery fails, so the numbers below are always measured on a
// configuration whose durability story actually holds. After each timed
// pass the journal is recovered once more and must replay every appended
// event.
//
// Tenant names are built once, before any timed loop, so the serving time
// the overhead divides by holds no string building.
//
// Gated metrics (tools/bench_gate.py, "wal"): append_overhead and
// caller_minflt_per_record on the "none" row, bytes_per_event and fsyncs
// on every journaled row, all lower-is-better. The fsync-heavy rows'
// overhead and fault counts are reported ungated: they track the device's
// sync latency, and under every-record the helper races the caller to
// re-populate each written-back page. Absolute events/sec are reported,
// not gated.
//
// Usage:
//   bench_wal [--tenants=16] [--steps=400] [--mc=20] [--archetypes=4]
//             [--segment-mb=4] [--dir=bench_wal.dir]
//             [--json=BENCH_wal.json]
//
// CI's perf-smoke invocation is in .github/workflows/ci.yml; the committed
// baseline lives at bench/baselines/BENCH_wal.baseline.json.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
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

/// Timed passes per row; the row keeps the fastest serve time and the
/// fewest serving-thread faults.
constexpr std::size_t kPasses = 7;

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

/// The serving session's fixed inputs: archetype buffers and tenant names.
struct Session {
  std::vector<std::string> buffers;
  std::vector<std::string> names;
};

api::ScalerFleet BuildFleet(const Session& session) {
  api::ScalerFleet fleet(0);
  bench::RegisterClones(&fleet, session.names, session.buffers);
  return fleet;
}

/// Serves steps [first, last): one observe per tenant, then one PlanAll.
/// Appends (tenants + 1) journal events per step when a tap is attached.
void ServeSteps(api::ScalerFleet* fleet, const Session& session,
                std::size_t first, std::size_t last) {
  for (std::size_t step = first; step < last; ++step) {
    const double now = kTrainS + 2.0 * static_cast<double>(step + 1);
    for (std::size_t i = 0; i < session.names.size(); ++i) {
      RS_CHECK(fleet->Observe(session.names[i],
                              now - 1.0 + 0.001 * static_cast<double>(i))
                   .ok());
    }
    for (const auto& plan : fleet->PlanAll(now)) {
      RS_CHECK(plan.status.ok()) << plan.status.ToString();
    }
  }
}

/// Minor page faults the calling thread has taken since it started.
std::uint64_t ThreadMinorFaults() {
  rusage usage{};
  RS_CHECK(::getrusage(RUSAGE_THREAD, &usage) == 0);
  return static_cast<std::uint64_t>(usage.ru_minflt);
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
  double serve_s = std::numeric_limits<double>::infinity();
  double append_overhead = 0.0; ///< serve_on / serve_off (1.0 for "off").
  std::uint64_t events = 0;     ///< Journal records appended (0 for "off").
  double bytes_per_event = 0.0;
  std::uint64_t fsyncs = 0;
  std::uint64_t segments = 0;
  /// Serving thread, timed pass.
  std::uint64_t caller_minflt = std::numeric_limits<std::uint64_t>::max();
  double caller_minflt_per_record = 0.0; ///< Over the control's, per record.
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
void SelfCheck(const Options& options, const Session& session,
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
    api::ScalerFleet fleet = BuildFleet(session);
    RS_CHECK(wal::EnableJournal(&fleet, &journal).ok());
    ServeSteps(&fleet, session, 0, small.steps / 2);
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
  ServeSteps(&*fleet, session, small.steps / 2, small.steps);
  RS_CHECK(journal.status().ok()) << journal.status().ToString();
  const std::uint64_t expected =
      small.tenants +
      static_cast<std::uint64_t>(small.steps) * (small.tenants + 1);
  RS_CHECK(journal.last_lsn() == expected)
      << "self-check lost or duplicated records: LSN " << journal.last_lsn()
      << ", expected " << expected;
  fs::remove_all(dir, ignored);
}

/// Serves every step on `fleet` and folds the pass into `result`'s fastest
/// time and fewest faults.
void TimePass(const Options& options, const Session& session,
              api::ScalerFleet* fleet, PolicyResult* result) {
  const std::uint64_t faults_before = ThreadMinorFaults();
  Stopwatch watch;
  ServeSteps(fleet, session, 0, options.steps);
  result->serve_s = std::min(result->serve_s, watch.ElapsedSeconds());
  result->caller_minflt =
      std::min(result->caller_minflt, ThreadMinorFaults() - faults_before);
}

/// One timed pass of `fsync` on a fresh fleet and journal directory.
void RunJournaledPass(const Options& options, const Session& session,
                      wal::FsyncPolicy fsync, PolicyResult* result) {
  namespace fs = std::filesystem;
  const std::string dir = options.dir + "/timed";
  std::error_code ignored;
  fs::remove_all(dir, ignored);

  wal::FleetJournal journal;
  const Status opened = journal.Open(dir, MakePolicy(options, fsync));
  RS_CHECK(opened.ok()) << opened.ToString();
  api::ScalerFleet fleet = BuildFleet(session);
  RS_CHECK(wal::EnableJournal(&fleet, &journal).ok());
  const std::uint64_t registered = journal.last_lsn();
  TimePass(options, session, &fleet, result);
  RS_CHECK(journal.status().ok()) << journal.status().ToString();
  RS_CHECK(journal.Sync().ok());
  journal.Detach();

  result->events = journal.last_lsn() - registered;
  RS_CHECK(result->events ==
           static_cast<std::uint64_t>(options.steps) * (options.tenants + 1))
      << "journal dropped records";
  result->fsyncs = journal.fsyncs();
  result->bytes_per_event = static_cast<double>(JournalBytes(dir)) /
                            static_cast<double>(journal.last_lsn());

  // Post-run artifact check: everything appended must recover and replay.
  wal::FleetJournal reopened;
  const Status reopen = reopened.Open(dir, MakePolicy(options, fsync));
  RS_CHECK(reopen.ok()) << reopen.ToString();
  RS_CHECK(reopened.open_report().truncated_bytes == 0);
  result->segments = reopened.open_report().segments;
  auto recovered = reopened.Recover();
  RS_CHECK(recovered.ok()) << recovered.status().ToString();
  RS_CHECK(reopened.last_lsn() == journal.last_lsn());
  fs::remove_all(dir, ignored);
}

/// Times the journal-off control, then each policy in `policies` (each
/// self-checked before any timing), once per pass. The control's first
/// pass also grows the heap, so its fastest is timed (and its faults
/// counted) warm.
std::vector<PolicyResult> RunRows(
    const Options& options, const Session& session,
    const std::vector<wal::FsyncPolicy>& policies) {
  std::vector<PolicyResult> rows(1 + policies.size());
  rows[0].policy = "off";
  rows[0].append_overhead = 1.0;
  for (std::size_t i = 0; i < policies.size(); ++i) {
    SelfCheck(options, session, policies[i]);
    rows[1 + i].policy = wal::FsyncPolicyName(policies[i]);
  }
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    {
      api::ScalerFleet fleet = BuildFleet(session);
      TimePass(options, session, &fleet, &rows[0]);
    }
    for (std::size_t i = 0; i < policies.size(); ++i) {
      RunJournaledPass(options, session, policies[i], &rows[1 + i]);
    }
  }
  const PolicyResult& off = rows[0];
  for (std::size_t i = 1; i < rows.size(); ++i) {
    rows[i].append_overhead = rows[i].serve_s / off.serve_s;
    rows[i].caller_minflt_per_record =
        (static_cast<double>(rows[i].caller_minflt) -
         static_cast<double>(off.caller_minflt)) /
        static_cast<double>(rows[i].events);
  }
  return rows;
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
        << ", \"segments\": " << run.segments
        << ", \"caller_minflt\": " << run.caller_minflt;
    if (run.policy != "off") {
      out << ", \"caller_minflt_per_record\": "
          << run.caller_minflt_per_record;
    }
    out << "}"
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
  const Session session{bench::TrainArchetypes(options.archetypes, archetype),
                        bench::TenantNames(options.tenants)};
  const std::uint64_t events_per_run =
      static_cast<std::uint64_t>(options.steps) * (options.tenants + 1);
  std::printf(
      "wal: %zu tenants (%zu archetypes, trained in %.2f s), %zu steps = "
      "%llu journal events per pass, fastest of %zu passes, %llu MiB "
      "segments\n\n",
      options.tenants, options.archetypes, train_watch.ElapsedSeconds(),
      options.steps, static_cast<unsigned long long>(events_per_run),
      kPasses, static_cast<unsigned long long>(options.segment_mb));

  const std::vector<PolicyResult> runs =
      RunRows(options, session,
              {wal::FsyncPolicy::kNone, wal::FsyncPolicy::kEveryN,
               wal::FsyncPolicy::kEveryRecord});

  std::printf("%14s %10s %10s %10s %12s %8s %8s %8s %11s\n", "policy",
              "serve_s", "events/s", "overhead", "B/event", "fsyncs", "segs",
              "minflt", "minflt/rec");
  for (const auto& run : runs) {
    std::printf("%14s %10.3f %10.0f %9.3fx %12.1f %8llu %8llu %8llu %11.5f\n",
                run.policy.c_str(), run.serve_s,
                static_cast<double>(events_per_run) / run.serve_s,
                run.append_overhead, run.bytes_per_event,
                static_cast<unsigned long long>(run.fsyncs),
                static_cast<unsigned long long>(run.segments),
                static_cast<unsigned long long>(run.caller_minflt),
                run.caller_minflt_per_record);
  }

  std::error_code ignored;
  std::filesystem::remove_all(options.dir, ignored);
  if (!options.json_path.empty()) {
    WriteJson(options, runs, events_per_run);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}

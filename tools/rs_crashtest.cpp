/// \file rs_crashtest.cpp
/// \brief Randomized kill-point harness for rs::wal: proves the zero-loss,
///        byte-identical-continuation guarantee by actually dying.
///
/// Matrix mode (the default) runs N seeded kill points. For each one it
/// forks a victim child that serves a fixed deterministic schedule through
/// a journaled fleet and `_Exit(3)`s — no destructors, no flushes, the
/// in-process equivalent of kill -9 — at the K-th crash-point window
/// (wal.append.head/.done, wal.fsync.before/.after, wal.rotate.*,
/// wal.checkpoint.* including the rename window, plus a "serve.op"
/// boundary point before every operation).
///
/// The journal copies each record into its mapped segment with one memcpy,
/// so no window falls inside a record. The harness makes the torn record
/// itself: when the victim dies at wal.append.done (record copied, LSN not
/// yet advanced), the parent cuts the active segment at a seeded offset
/// strictly inside that last frame — what a torn single write leaves on
/// disk. The victim dies with its segment mapped, so the zero padding of
/// the preallocation follows the last record; Open must skip it without
/// counting it as a repair. The matrix fails if no kill point produced a
/// torn-tail repair. The parent then, for every worker count in --workers:
///
///   * reopens the journal directory (scan + torn-tail repair),
///   * recovers (checkpoint snapshot + journal-tail replay), and
///   * serves the remainder of the schedule, asserting every planned
///     action is byte-identical (IEEE-754 bit patterns) to an
///     uninterrupted control run of the same schedule.
///
/// The resume point is derived purely from the durable journal: every
/// operation in the schedule appends exactly one record (observe -> one,
/// PlanAll batch -> one; the two registrations are synced before crash
/// points arm), so `resume_op = last_lsn - 2`. A record that did not
/// survive the crash means the recovered fleet never saw that operation,
/// and the continuation re-executes it — nothing is lost, nothing is
/// applied twice. A final attached continuation re-journals the remainder
/// and asserts the journal ends at exactly the LSN a crash-free run ends
/// at: zero lost, zero duplicated events.
///
/// Usage:
///   rs_crashtest [--dir=PATH] [--points=200] [--seed=20220414]
///                [--steps=12] [--workers=0,1,8] [--keep]
///   rs_crashtest gen-example <out-file>     # deterministic example segment
///   rs_crashtest gen-example --crashed <out-file>
///                                  # the same, as a killed writer leaves it
///
/// Forking is safe with the journal's page-populating helper thread: the
/// parent never holds a journal across a fork. Its recoveries (Open +
/// Recover) append nothing, so they start no helper, and the attached
/// continuation, which does, is destroyed (helper joined) before the next
/// victim is forked. Each victim opens its own journal. The helper writes
/// no byte, so it adds no crash state and has no crash window: the
/// windows count on one process-wide counter the matrix replays
/// deterministically.
///
/// Exit code 0 = every kill point recovered byte-identically; any
/// divergence, lost record, or recovery failure aborts with a message.
/// CI runs a fresh seed every build and prints it for reproduction.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "rs/api/api.hpp"
#include "rs/common/logging.hpp"
#include "rs/stats/rng.hpp"
#include "rs/wal/wal.hpp"

namespace {

using namespace rs;

// ---------------------------------------------------------------------------
// Fixture: the same small sinusoidal workload the wal tests train on. The
// two scalers are trained once and cached as SaveState buffers; the victim
// child (forked) inherits them, so no per-kill-point training.
// ---------------------------------------------------------------------------

constexpr double kPeriodS = 600.0;
constexpr double kDt = 30.0;

const char* kTenantNames[2] = {"ct-a", "ct-b"};
const char* kTenantSpecs[2] = {"backup_pool", "robust_hp:target=0.9"};

std::string TrainTenant(std::size_t i) {
  std::vector<double> rates;
  for (double t = 0.5 * kDt; t < 4.0 * kPeriodS; t += kDt) {
    const double phase = std::fmod(t, kPeriodS) / kPeriodS;
    rates.push_back(0.5 * (1.0 + 0.4 * std::sin(2.0 * M_PI * phase)));
  }
  auto intensity = *workload::PiecewiseConstantIntensity::Make(rates, kDt);
  stats::Rng rng(61);
  auto trace = *workload::MakeTraceFromIntensity(
      &rng, intensity, stats::DurationDistribution::Exponential(15.0));
  auto spec = api::ParseStrategySpec(kTenantSpecs[i]);
  RS_CHECK(spec.ok()) << spec.status().ToString();
  auto scaler = api::ScalerBuilder()
                    .WithTrace(trace)
                    .WithBinWidth(kDt)
                    .WithForecastHorizon(kPeriodS)
                    .WithStrategy(*spec)
                    .WithPlanningInterval(2.0)
                    .WithMcSamples(40)
                    .Build();
  RS_CHECK(scaler.ok()) << scaler.status().ToString();
  std::ostringstream out;
  RS_CHECK(scaler->SaveState(out).ok());
  return std::move(out).str();
}

/// SaveState buffers, trained once in main() before any fork.
std::vector<std::string> g_buffers;

void RegisterTenants(api::ScalerFleet* fleet) {
  for (std::size_t i = 0; i < 2; ++i) {
    std::istringstream in(g_buffers[i]);
    auto scaler = api::ScalerBuilder::RestoreState(in);
    RS_CHECK(scaler.ok()) << scaler.status().ToString();
    RS_CHECK(fleet->Register(kTenantNames[i], std::move(scaler).ValueOrDie())
                 .ok());
  }
}

// ---------------------------------------------------------------------------
// The deterministic serving schedule. Operation j (0-based) of step
// s = j/3 + 1:  j%3==0 observe ct-a, j%3==1 observe ct-b, j%3==2 PlanAll.
// Each operation journals exactly ONE record (the tap emits one event per
// observe and one per PlanAll batch), which is what makes the resume point
// derivable from the durable LSN alone.
// ---------------------------------------------------------------------------

std::string Fingerprint(const sim::ScalingAction& action) {
  std::ostringstream out;
  out << action.deletions;
  for (const double t : action.creation_times) {
    out << ',' << std::bit_cast<std::uint64_t>(t);
  }
  return std::move(out).str();
}

/// Runs operation `j`; returns the PlanAll fingerprint ("" for observes).
std::string RunOp(api::ScalerFleet* fleet, std::size_t j) {
  const double now = 2.0 * static_cast<double>(j / 3 + 1);
  switch (j % 3) {
    case 0:
      RS_CHECK(fleet->Observe(kTenantNames[0], now - 1.0).ok());
      return "";
    case 1:
      RS_CHECK(fleet->Observe(kTenantNames[1], now - 0.99).ok());
      return "";
    default: {
      std::ostringstream out;
      for (const auto& plan : fleet->PlanAll(now)) {
        RS_CHECK(plan.status.ok())
            << plan.tenant << ": " << plan.status.ToString();
        out << plan.tenant << '=' << Fingerprint(plan.action) << ';';
      }
      return std::move(out).str();
    }
  }
}

wal::JournalPolicy VictimPolicy() {
  wal::JournalPolicy policy;
  policy.fsync = wal::FsyncPolicy::kEveryRecord;
  // Small segments so the schedule crosses several rotation windows.
  policy.segment_bytes = 1024;
  return policy;
}

// ---------------------------------------------------------------------------
// Crash-point hook: counts windows; at the armed limit, dies on the spot.
// ---------------------------------------------------------------------------

std::uint64_t g_crash_count = 0;
std::uint64_t g_crash_limit = 0;  ///< 0: count only (probe mode).

/// Victim exit codes: killed at a crash window, or killed at
/// wal.append.done (the parent then tears the record just written).
constexpr int kExitCrashed = 3;
constexpr int kExitCrashedAfterAppend = 4;

void CrashHook(void*, const char* point) {
  ++g_crash_count;
  if (g_crash_limit != 0 && g_crash_count == g_crash_limit) {
    // No destructors, no flushes: kill -9 semantics.
    std::_Exit(std::strcmp(point, "wal.append.done") == 0
                   ? kExitCrashedAfterAppend
                   : kExitCrashed);
  }
}

/// The victim session: journaled serving of the full schedule with crash
/// points armed after setup (the two registrations are synced first, so
/// every journal the parent recovers holds at least the intern records).
/// With limit == 0 this is the probe: it counts the total crash windows.
std::uint64_t VictimRun(const std::string& dir, std::size_t steps,
                        std::uint64_t limit) {
  wal::FleetJournal journal;
  const Status opened = journal.Open(dir, VictimPolicy());
  RS_CHECK(opened.ok()) << opened.ToString();
  api::ScalerFleet fleet(0);
  RegisterTenants(&fleet);
  RS_CHECK(wal::EnableJournal(&fleet, &journal).ok());
  RS_CHECK(journal.Sync().ok());

  g_crash_count = 0;
  g_crash_limit = limit;
  wal::SetCrashPointHook(&CrashHook, nullptr);
  for (std::size_t j = 0; j < 3 * steps; ++j) {
    wal::CrashPoint("serve.op");
    (void)RunOp(&fleet, j);
    if (j % 3 == 2 && j / 3 + 1 == steps / 2) {
      // Mid-schedule checkpoint: arms the wal.checkpoint.{begin,tmp,
      // renamed,done} windows, including a kill between rename and the
      // directory fsync.
      RS_CHECK(journal.Checkpoint("rs_crashtest mid-schedule").ok())
          << journal.status().ToString();
    }
  }
  wal::SetCrashPointHook(nullptr, nullptr);
  journal.Detach();
  return g_crash_count;
}

struct Options {
  std::string dir = "rs_crashtest.dir";
  std::size_t points = 200;
  std::uint64_t seed = 20220414;
  std::size_t steps = 12;
  std::vector<std::size_t> workers = {0, 1, 8};
  bool keep = false;
};

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t ReadLe(const std::string& bytes, std::size_t offset,
                     std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[offset + i]))
             << (8 * i);
  }
  return value;
}

/// The journal's last segment file.
std::string LastSegment(const std::string& dir) {
  std::vector<std::string> segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) segments.push_back(entry.path().string());
  }
  RS_CHECK(!segments.empty()) << "no journal segment in " << dir;
  return *std::max_element(segments.begin(), segments.end());
}

/// Tears the journal's last record: cuts the active (last) segment at a
/// seeded offset strictly inside its last frame, as a torn write would,
/// dropping the zero padding after it. Frames follow the 16-byte segment
/// header as [lsn u64][len u32][crc u32][payload] (docs/WAL_FORMAT.md).
/// Returns the torn bytes Open must report: the kept part of the frame
/// through its last non-zero byte (zeros after it read as padding).
std::size_t TearLastRecord(const std::string& dir, std::uint64_t* stream) {
  const std::string path = LastSegment(dir);
  auto report = wal::InspectSegmentFile(path);
  RS_CHECK(report.ok()) << report.status().ToString();
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  // The walk stops at the end of the last intact record, not at the end of
  // the file, which may be padding.
  bytes.resize(report->bytes - report->torn_tail_bytes);
  std::size_t last = 0;
  for (std::size_t offset = 16; offset < bytes.size();
       offset += 16 + ReadLe(bytes, offset + 8, 4)) {
    last = offset;
  }
  RS_CHECK(last != 0) << path << " holds no record to tear";
  const std::size_t frame_size = bytes.size() - last;
  const std::size_t cut = last + 1 + SplitMix64(stream) % (frame_size - 1);
  std::filesystem::resize_file(path, cut);
  const std::size_t nonzero =
      std::string_view(bytes).substr(last, cut - last).find_last_not_of('\0');
  return nonzero == std::string_view::npos ? 0 : nonzero + 1;
}

int RunMatrix(const Options& options) {
  namespace fs = std::filesystem;
  const std::size_t total_ops = 3 * options.steps;
  std::error_code ignored;
  fs::create_directories(options.dir, ignored);

  // Probe: count the crash windows of one uninterrupted victim run.
  const std::string probe_dir = options.dir + "/probe";
  fs::remove_all(probe_dir, ignored);
  const std::uint64_t total_points =
      VictimRun(probe_dir, options.steps, /*limit=*/0);
  fs::remove_all(probe_dir, ignored);
  RS_CHECK(total_points > total_ops) << "schedule fired too few crash windows";

  // Control: the same schedule served uninterrupted, no journal. Every
  // recovered continuation must reproduce these bytes exactly.
  std::vector<std::string> control(total_ops);
  {
    api::ScalerFleet fleet(0);
    RegisterTenants(&fleet);
    for (std::size_t j = 0; j < total_ops; ++j) control[j] = RunOp(&fleet, j);
  }

  // Sampled kill points: always the first and last window, the rest drawn
  // from the seeded stream (duplicates fine: recovery is deterministic).
  std::vector<std::uint64_t> kill_points;
  kill_points.push_back(1);
  kill_points.push_back(total_points);
  std::uint64_t stream = options.seed;
  while (kill_points.size() < options.points) {
    kill_points.push_back(1 + SplitMix64(&stream) % total_points);
  }

  std::printf(
      "rs_crashtest: %zu kill points over %llu crash windows (seed %llu, "
      "%zu steps = %zu ops, workers",
      kill_points.size(), static_cast<unsigned long long>(total_points),
      static_cast<unsigned long long>(options.seed), options.steps, total_ops);
  for (const std::size_t w : options.workers) std::printf(" %zu", w);
  std::printf(")\n");

  std::size_t crashed = 0;
  std::size_t survived = 0;
  std::size_t torn_repairs = 0;
  std::size_t padded = 0;  ///< Killed victims whose segment kept padding.
  std::uint64_t tear_stream = ~options.seed;  // Apart from the kill points'.
  std::size_t dropped_segments = 0;
  std::size_t with_checkpoint = 0;
  for (std::size_t n = 0; n < kill_points.size(); ++n) {
    const std::uint64_t k = kill_points[n];
    const std::string dir = options.dir + "/k";
    fs::remove_all(dir, ignored);

    const pid_t pid = fork();
    RS_CHECK(pid >= 0) << "fork failed";
    if (pid == 0) {
      VictimRun(dir, options.steps, k);
      std::_Exit(0);  // k was past the last window: the victim survived.
    }
    int wstatus = 0;
    RS_CHECK(waitpid(pid, &wstatus, 0) == pid);
    const int code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
    RS_CHECK(code == 0 || code == kExitCrashed ||
             code == kExitCrashedAfterAppend)
        << "victim died abnormally (status " << wstatus << ") at kill point "
        << k;
    code != 0 ? ++crashed : ++survived;
    if (code != 0) {
      // Not an assertion: a victim killed mid-rotation may leave a trailing
      // segment without a header, which Open drops.
      auto report = wal::InspectSegmentFile(LastSegment(dir));
      padded += report.ok() && report->padding_bytes > 0 ? 1 : 0;
    }
    const std::size_t torn = code == kExitCrashedAfterAppend
                                 ? TearLastRecord(dir, &tear_stream)
                                 : 0;

    // Recover + continue under every worker count; each must match the
    // control run byte-for-byte from its resume point.
    std::uint64_t durable = 0;
    for (const std::size_t workers : options.workers) {
      wal::FleetJournal journal;
      const Status opened = journal.Open(dir, VictimPolicy());
      RS_CHECK(opened.ok()) << "kill point " << k << ": " << opened.ToString();
      if (workers == options.workers.front()) {
        // Exactly the torn bytes: padding never counts as a repair.
        RS_CHECK(journal.open_report().truncated_bytes == torn)
            << "kill point " << k << ": Open truncated "
            << journal.open_report().truncated_bytes << " bytes, the torn "
            << "record left " << torn;
        torn_repairs += journal.open_report().truncated_bytes > 0 ? 1 : 0;
        dropped_segments += journal.open_report().dropped_segments;
        with_checkpoint += journal.open_report().had_checkpoint ? 1 : 0;
      }
      wal::RecoverOptions recover;
      recover.worker_threads = workers;
      auto fleet = journal.Recover(recover);
      RS_CHECK(fleet.ok())
          << "kill point " << k << ": " << fleet.status().ToString();
      durable = journal.last_lsn();
      RS_CHECK(durable >= 2 && durable <= 2 + total_ops)
          << "kill point " << k << ": durable LSN " << durable
          << " outside the schedule";
      for (std::size_t j = durable - 2; j < total_ops; ++j) {
        const std::string got = RunOp(&*fleet, j);
        RS_CHECK(got == control[j])
            << "kill point " << k << ", " << workers << " workers, op " << j
            << " diverged from control:\n  control: " << control[j]
            << "\n  crashed: " << got;
      }
    }

    // Zero lost, zero duplicated: an attached continuation re-journals the
    // remainder and must land on exactly the crash-free final LSN.
    {
      wal::FleetJournal journal;
      const Status reopened = journal.Open(dir, VictimPolicy());
      RS_CHECK(reopened.ok()) << reopened.ToString();
      auto fleet = journal.Recover();
      RS_CHECK(fleet.ok()) << fleet.status().ToString();
      RS_CHECK(journal.Attach(&*fleet).ok());
      RS_CHECK(journal.last_lsn() == durable)
          << "re-attach appended records at kill point " << k;
      for (std::size_t j = durable - 2; j < total_ops; ++j) {
        (void)RunOp(&*fleet, j);
      }
      RS_CHECK(journal.status().ok()) << journal.status().ToString();
      RS_CHECK(journal.last_lsn() == 2 + total_ops)
          << "kill point " << k << ": continuation ended at LSN "
          << journal.last_lsn() << ", crash-free runs end at "
          << 2 + total_ops;
    }

    if ((n + 1) % 25 == 0 || n + 1 == kill_points.size()) {
      std::printf(
          "  [%3zu/%zu] ok (crashed %zu, padded %zu, survived %zu, "
          "torn-tail repairs %zu, dropped segments %zu, "
          "recovered-from-checkpoint %zu)\n",
          n + 1, kill_points.size(), crashed, padded, survived, torn_repairs,
          dropped_segments, with_checkpoint);
    }
  }
  if (!options.keep) fs::remove_all(options.dir, ignored);
  RS_CHECK(torn_repairs > 0)
      << "no kill point produced a torn tail, so the matrix did not cover "
         "torn-record repair; raise --points";

  std::printf(
      "rs_crashtest: PASS — %zu kill points, every recovery byte-identical "
      "to control under every worker count, zero lost or duplicated "
      "events\n",
      kill_points.size());
  return 0;
}

/// Writes a small deterministic journal segment (for tests/data and the
/// format spec checker): one fleet, two tenants, two serving steps, no
/// fsync timing dependence, single segment. `crashed` serves in a forked
/// victim that _Exits with the journal still open, so the copied segment
/// ends in the zero padding a killed writer leaves.
int GenExample(const std::string& out_path, bool crashed) {
  namespace fs = std::filesystem;
  const std::string dir = out_path + ".tmpdir";
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  const pid_t pid = crashed ? fork() : 0;
  RS_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    wal::FleetJournal journal;
    wal::JournalPolicy policy;
    policy.fsync = wal::FsyncPolicy::kNone;
    RS_CHECK(journal.Open(dir, policy).ok());
    api::ScalerFleet fleet(0);
    RegisterTenants(&fleet);
    RS_CHECK(wal::EnableJournal(&fleet, &journal).ok());
    for (std::size_t j = 0; j < 6; ++j) (void)RunOp(&fleet, j);
    RS_CHECK(journal.Sync().ok());
    if (crashed) std::_Exit(0);
    journal.Detach();
  } else {
    int wstatus = 0;
    RS_CHECK(waitpid(pid, &wstatus, 0) == pid && WIFEXITED(wstatus) &&
             WEXITSTATUS(wstatus) == 0)
        << "example victim failed (status " << wstatus << ")";
  }
  const std::string segment = dir + "/wal-0000000000000001.rswal";
  auto report = wal::InspectSegmentFile(segment);
  RS_CHECK(report.ok()) << report.status().ToString();
  RS_CHECK(report->records == 8 && report->torn_tail_bytes == 0);
  RS_CHECK((report->padding_bytes > 0) == crashed);
  fs::copy_file(segment, out_path, fs::copy_options::overwrite_existing);
  fs::remove_all(dir, ignored);
  std::printf("wrote %s (%zu records, LSN %llu..%llu, %zu bytes, %zu bytes "
              "of padding)\n",
              out_path.c_str(), report->records,
              static_cast<unsigned long long>(report->first_lsn),
              static_cast<unsigned long long>(report->last_lsn),
              report->bytes, report->padding_bytes);
  return 0;
}

std::vector<std::size_t> ParseSizeList(const std::string& text) {
  std::vector<std::size_t> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    out.push_back(static_cast<std::size_t>(std::stoul(item)));
  }
  RS_CHECK(!out.empty()) << "empty size list";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string gen_example_out;
  bool gen_example_crashed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    const bool crashed_example = arg == "gen-example" && i + 2 < argc &&
                                 std::strcmp(argv[i + 1], "--crashed") == 0;
    if (crashed_example || (arg == "gen-example" && i + 1 < argc)) {
      gen_example_crashed = crashed_example;
      i += crashed_example ? 2 : 1;
      gen_example_out = argv[i];
    } else if (arg.rfind("--dir=", 0) == 0) {
      options.dir = value();
    } else if (arg.rfind("--points=", 0) == 0) {
      options.points = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::stoull(value());
    } else if (arg.rfind("--steps=", 0) == 0) {
      options.steps = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg.rfind("--workers=", 0) == 0) {
      options.workers = ParseSizeList(value());
    } else if (arg == "--keep") {
      options.keep = true;
    } else {
      std::fprintf(stderr,
                   "usage: rs_crashtest [--dir=PATH] [--points=N] [--seed=S] "
                   "[--steps=N] [--workers=0,1,8] [--keep]\n"
                   "       rs_crashtest gen-example [--crashed] <out-file>\n");
      return 2;
    }
  }
  RS_CHECK(options.steps >= 4) << "--steps too small for a mid checkpoint";
  RS_CHECK(options.points >= 2);

  g_buffers.push_back(TrainTenant(0));
  g_buffers.push_back(TrainTenant(1));

  if (!gen_example_out.empty()) {
    return GenExample(gen_example_out, gen_example_crashed);
  }
  return RunMatrix(options);
}

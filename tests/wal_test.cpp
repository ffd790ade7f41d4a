// Tests of rs::wal (write-ahead event journal + crash-consistent recovery):
//  * the headline zero-loss guarantee: a journaled serving session dropped
//    without any shutdown (the in-process analogue of kill -9) recovers —
//    checkpoint + journal-tail replay — and continues byte-identically to an
//    uninterrupted control fleet, across recovery worker counts {0, 1, 8};
//  * checkpointing: LSN bookkeeping, covered-segment retirement, recovery
//    from checkpoint + tail rather than the full history;
//  * segment rotation and recovery across segment boundaries;
//  * every fsync policy recovers (kill -9 semantics: the page cache lives);
//  * recovery edge cases: empty journal, exactly one torn record (cut at
//    every byte offset inside it), checkpoint LSN past the journal end
//    (stale snapshot + lost journal), double-recovery idempotence, a tail
//    that fails to replay, and the refusal to Recover through a journal
//    object that has appended since Open (its tail is stale); tail() holds
//    every tail event after Recover, whether the replay passed or failed;
//  * one event tap: a journal reopened after a session holds exactly the
//    events a trace::Recorder captured from the same session, byte for
//    byte (mid-session attach, lifecycle churn, Plan and PlanAll);
//  * the append path: every segment file equals, byte for byte, the frames
//    a fresh-encoder-per-record oracle builds for the same session, a
//    steady-state Observe append makes zero heap allocations, and only a
//    record that embeds a scaler snapshot releases the frame buffer;
//  * layout version 1 stays readable: the committed v1 example segment
//    decodes to pinned events, a v1 journal with a checkpoint recovers and
//    continues byte-identically, and so does a directory the current
//    writer continued in v2 segments after v1 ones;
//  * fail-stop degradation under injected wal.append / wal.fsync / wal.rotate
//    faults: status() goes sticky-broken, serving continues, and the durable
//    prefix still recovers;
//  * corruption robustness: truncations and bit flips of segment and
//    checkpoint files fail with a clean Status — this file runs under the
//    ASan/UBSan CI job, which is the real assertion (mirrors persist_test).
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <system_error>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "rs/api/api.hpp"
#include "rs/fault/fault.hpp"
#include "rs/persist/persist.hpp"
#include "rs/stats/rng.hpp"
#include "rs/trace/trace.hpp"
#include "rs/wal/wal.hpp"

// Heap accounting for the append-path tests: this binary's global operator
// new counts allocations while g_counting_allocations is set, and new/delete
// always track the live heap bytes they hand out.
namespace {
std::atomic<bool> g_counting_allocations{false};
std::atomic<std::uint64_t> g_heap_allocations{0};
std::atomic<std::int64_t> g_live_heap_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting_allocations.load(std::memory_order_relaxed)) {
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_heap_bytes.fetch_add(
      static_cast<std::int64_t>(malloc_usable_size(p)),
      std::memory_order_relaxed);
  return p;
}
// Out of line, so GCC does not inline free() against a new-expression and
// warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_heap_bytes.fetch_sub(
      static_cast<std::int64_t>(malloc_usable_size(p)),
      std::memory_order_relaxed);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  operator delete(p);
}

namespace rs::wal {
namespace {

using api::ScalerFleet;

// ---------------------------------------------------------------------------
// Fixtures: the same small sinusoidal workload the fault tests train on, and
// a deterministic step-driven serving session (observe every tenant, then
// PlanAll) whose actions are fingerprinted as IEEE-754 bit patterns.
// ---------------------------------------------------------------------------

constexpr double kPeriodS = 600.0;
constexpr double kDt = 30.0;

workload::Trace MakeTrace(std::uint64_t seed, double horizon, double qps) {
  std::vector<double> rates;
  for (double t = 0.5 * kDt; t < horizon; t += kDt) {
    const double phase = std::fmod(t, kPeriodS) / kPeriodS;
    rates.push_back(qps * (1.0 + 0.4 * std::sin(2.0 * M_PI * phase)));
  }
  auto intensity = *workload::PiecewiseConstantIntensity::Make(rates, kDt);
  stats::Rng rng(seed);
  return *workload::MakeTraceFromIntensity(
      &rng, intensity, stats::DurationDistribution::Exponential(15.0));
}

api::Scaler BuildScaler(const char* spec_string) {
  static const workload::Trace train = MakeTrace(61, 4.0 * kPeriodS, 0.5);
  auto spec = api::ParseStrategySpec(spec_string);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  auto scaler = api::ScalerBuilder()
                    .WithTrace(train)
                    .WithBinWidth(kDt)
                    .WithForecastHorizon(kPeriodS)
                    .WithStrategy(*spec)
                    .WithPlanningInterval(2.0)
                    .WithMcSamples(40)
                    .Build();
  EXPECT_TRUE(scaler.ok()) << scaler.status().ToString();
  return std::move(scaler).ValueOrDie();
}

const std::vector<std::string>& Tenants() {
  static const std::vector<std::string> tenants = {"svc-a", "svc-b"};
  return tenants;
}

void RegisterTenants(ScalerFleet* fleet) {
  ASSERT_TRUE(fleet->Register("svc-a", BuildScaler("backup_pool")).ok());
  ASSERT_TRUE(
      fleet->Register("svc-b", BuildScaler("robust_hp:target=0.9")).ok());
}

std::string Fingerprint(const sim::ScalingAction& action) {
  std::ostringstream out;
  out << action.deletions;
  for (const double t : action.creation_times) {
    out << ',' << std::bit_cast<std::uint64_t>(t);
  }
  return std::move(out).str();
}

/// Serves steps [first, last]: every tenant observes one arrival, then one
/// PlanAll batch drains. Returns one fingerprint per (step, tenant).
std::vector<std::string> ServeSteps(ScalerFleet* fleet, int first, int last) {
  std::vector<std::string> out;
  for (int step = first; step <= last; ++step) {
    const double now = 2.0 * step;
    for (std::size_t i = 0; i < Tenants().size(); ++i) {
      EXPECT_TRUE(
          fleet->Observe(Tenants()[i], now - 1.0 + 0.01 * static_cast<double>(i))
              .ok());
    }
    for (const auto& plan : fleet->PlanAll(now)) {
      EXPECT_TRUE(plan.status.ok())
          << plan.tenant << ": " << plan.status.ToString();
      out.push_back(plan.tenant + "=" + Fingerprint(plan.action));
    }
  }
  return out;
}

std::string TempDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "rs_wal_test_" +
                          std::to_string(::getpid()) + "_" + name;
  // Tests re-run: start from an empty directory.
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  return dir;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void AppendLe(std::string* out, std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
  }
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

/// Offset of the last record frame in a segment's bytes (0: no record).
/// Frames follow the 16-byte header as [lsn u64][len u32][crc u32][payload].
std::size_t LastFrameOffset(const std::string& bytes) {
  std::size_t last = 0;
  for (std::size_t offset = 16; offset + 16 <= bytes.size();
       offset += 16 + ReadLe(bytes, offset + 8, 4)) {
    last = offset;
  }
  return last;
}

/// The events `journal` holds past its checkpoint, encoded back to back.
std::string EncodedTail(const FleetJournal& journal) {
  persist::Writer writer;
  writer.ResetBare();
  for (const trace::Event& event : journal.tail()) {
    trace::EncodeEvent(&writer, event);
  }
  return std::string(writer.bytes());
}

std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 &&
        name.size() > 6 && name.substr(name.size() - 6) == ".rswal") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Runs a journaled session through `crash_step` that "crashes" (drops
/// fleet + journal with no shutdown, no detach, no checkpoint-at-exit).
void JournalThenCrash(const std::string& dir, const JournalPolicy& policy,
                      int crash_step, bool checkpoint_midway) {
  FleetJournal journal;
  EXPECT_TRUE(journal.Open(dir, policy).ok());
  ScalerFleet fleet(0);
  RegisterTenants(&fleet);
  EXPECT_TRUE(EnableJournal(&fleet, &journal).ok());
  ServeSteps(&fleet, 1, crash_step / 2);
  if (checkpoint_midway) {
    EXPECT_TRUE(journal.Checkpoint("midway").ok());
  }
  ServeSteps(&fleet, crash_step / 2 + 1, crash_step);
  EXPECT_TRUE(journal.status().ok()) << journal.status().ToString();
  // Crash: both objects die here without Detach or Checkpoint.
}

/// Recovers the journal in `dir` with `recover_workers`, re-attaches it and
/// serves steps (crash_step, last_step]. Returns their fingerprints.
std::vector<std::string> RecoverAndContinue(const std::string& dir,
                                            const JournalPolicy& policy,
                                            int crash_step, int last_step,
                                            std::size_t recover_workers) {
  FleetJournal journal;
  EXPECT_TRUE(journal.Open(dir, policy).ok());
  RecoverOptions options;
  options.worker_threads = recover_workers;
  RecoveryReport report;
  auto fleet = journal.Recover(options, &report);
  EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
  const std::uint64_t lsn_before_attach = journal.last_lsn();
  EXPECT_TRUE(journal.Attach(&*fleet).ok());
  EXPECT_EQ(journal.last_lsn(), lsn_before_attach)
      << "re-attaching a recovered fleet must journal nothing twice";
  auto out = ServeSteps(&*fleet, crash_step + 1, last_step);
  journal.Detach();
  return out;
}

/// JournalThenCrash, then RecoverAndContinue. Returns the post-crash
/// fingerprints.
std::vector<std::string> CrashAndContinue(const std::string& dir,
                                          const JournalPolicy& policy,
                                          int crash_step, int last_step,
                                          std::size_t recover_workers,
                                          bool checkpoint_midway = false) {
  JournalThenCrash(dir, policy, crash_step, checkpoint_midway);
  return RecoverAndContinue(dir, policy, crash_step, last_step,
                            recover_workers);
}

// ---------------------------------------------------------------------------
// Zero-loss continuation: the headline guarantee.
// ---------------------------------------------------------------------------

TEST(WalRecoveryTest, CrashedSessionContinuesByteIdenticallyAcrossWorkers) {
  // Uninterrupted control: one fleet serves steps 1..30 in a single life.
  ScalerFleet control(0);
  RegisterTenants(&control);
  ServeSteps(&control, 1, 20);
  const auto control_tail = ServeSteps(&control, 21, 30);

  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{8}}) {
    const std::string dir =
        TempDir(("continue_w" + std::to_string(workers)).c_str());
    const auto recovered_tail =
        CrashAndContinue(dir, JournalPolicy{}, /*crash_step=*/20,
                         /*last_step=*/30, workers);
    EXPECT_EQ(recovered_tail, control_tail) << workers << " workers";
    std::filesystem::remove_all(dir);
  }
}

TEST(WalRecoveryTest, CheckpointPlusTailContinuesByteIdentically) {
  ScalerFleet control(0);
  RegisterTenants(&control);
  ServeSteps(&control, 1, 20);
  const auto control_tail = ServeSteps(&control, 21, 30);

  const std::string dir = TempDir("checkpointed");
  const auto recovered_tail =
      CrashAndContinue(dir, JournalPolicy{}, /*crash_step=*/20,
                       /*last_step=*/30, /*recover_workers=*/0,
                       /*checkpoint_midway=*/true);
  EXPECT_EQ(recovered_tail, control_tail);
  std::filesystem::remove_all(dir);
}

TEST(WalRecoveryTest, EveryFsyncPolicyRecoversAfterProcessCrash) {
  // kill -9 semantics: the OS page cache survives the process, so even
  // FsyncPolicy::kNone loses nothing here (power loss is what it trades).
  ScalerFleet control(0);
  RegisterTenants(&control);
  ServeSteps(&control, 1, 10);
  const auto control_tail = ServeSteps(&control, 11, 16);

  for (const FsyncPolicy fsync :
       {FsyncPolicy::kEveryRecord, FsyncPolicy::kEveryN, FsyncPolicy::kNone}) {
    JournalPolicy policy;
    policy.fsync = fsync;
    policy.fsync_every_n = 4;
    const std::string dir = TempDir(
        (std::string("policy_") + FsyncPolicyName(fsync)).c_str());
    const auto recovered_tail = CrashAndContinue(dir, policy, /*crash_step=*/10,
                                                 /*last_step=*/16,
                                                 /*recover_workers=*/0);
    EXPECT_EQ(recovered_tail, control_tail) << FsyncPolicyName(fsync);
    std::filesystem::remove_all(dir);
  }
}

TEST(WalRecoveryTest, KilledWriterLeavesPaddingAndLosesNoRecord) {
  // A forked child journals under kNone and _Exits: no destructor runs, so
  // the segment is never unmapped or cut and ends in zero padding.
  constexpr int kObserves = 500;
  JournalPolicy policy;
  policy.fsync = FsyncPolicy::kNone;
  policy.segment_bytes = 64 << 10;
  const std::string dir = TempDir("killed");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    FleetJournal journal;
    ScalerFleet fleet(0);
    RegisterTenants(&fleet);
    const bool ready =
        journal.Open(dir, policy).ok() && EnableJournal(&fleet, &journal).ok();
    for (int i = 0; ready && i < kObserves; ++i) {
      (void)fleet.Observe(Tenants()[i % 2], 0.01 * i);
    }
    std::_Exit(ready && journal.status().ok() ? 0 : 1);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) << wstatus;
  const std::uint64_t journaled = 2 + kObserves;  // Two registrations.

  const std::string segment = SegmentFiles(dir).back();
  ASSERT_EQ(std::filesystem::file_size(segment), policy.segment_bytes);
  auto killed = InspectSegmentFile(segment);
  ASSERT_TRUE(killed.ok()) << killed.status().ToString();
  EXPECT_EQ(killed->last_lsn, journaled);
  EXPECT_EQ(killed->torn_tail_bytes, 0u);
  EXPECT_EQ(killed->bytes + killed->padding_bytes, policy.segment_bytes);

  ScalerFleet control(0);
  RegisterTenants(&control);
  for (int i = 0; i < kObserves; ++i) {
    ASSERT_TRUE(control.Observe(Tenants()[i % 2], 0.01 * i).ok());
  }
  const auto control_tail = ServeSteps(&control, 10, 12);
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir, policy).ok());
    EXPECT_EQ(journal.open_report().last_lsn, journaled);
    EXPECT_EQ(journal.open_report().truncated_bytes, 0u)
        << "padding is not a torn tail";
    auto fleet = journal.Recover();
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    ASSERT_TRUE(journal.Attach(&*fleet).ok());
    EXPECT_EQ(ServeSteps(&*fleet, 10, 12), control_tail);
    ASSERT_TRUE(journal.status().ok()) << journal.status().ToString();
    journal.Detach();
  }
  // Appends after the reopen continued at the old data end: the closed
  // segment is one gap-free run of records with no padding left.
  auto closed = InspectSegmentFile(segment);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_EQ(closed->last_lsn, journaled + 3 * (Tenants().size() + 1));
  EXPECT_EQ(closed->padding_bytes, 0u);
  EXPECT_EQ(closed->bytes, std::filesystem::file_size(segment));
  std::filesystem::remove_all(dir);
}

TEST(WalRecoveryTest, RotatedSegmentsRecoverAndCheckpointRetiresThem) {
  ScalerFleet control(0);
  RegisterTenants(&control);
  ServeSteps(&control, 1, 12);
  const auto control_tail = ServeSteps(&control, 13, 18);

  JournalPolicy policy;
  policy.segment_bytes = 512;  // Tiny: every few events rotate.
  const std::string dir = TempDir("rotation");
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir, policy).ok());
    ScalerFleet fleet(0);
    RegisterTenants(&fleet);
    ASSERT_TRUE(EnableJournal(&fleet, &journal).ok());
    ServeSteps(&fleet, 1, 12);
    ASSERT_TRUE(journal.status().ok()) << journal.status().ToString();
    const auto segments = SegmentFiles(dir);
    ASSERT_GT(segments.size(), 2u) << "the session must actually rotate";
    // Rotation cuts each retired segment to its records; only the live
    // one still carries its preallocation.
    for (const std::string& segment : segments) {
      auto inspected = InspectSegmentFile(segment);
      ASSERT_TRUE(inspected.ok()) << inspected.status().ToString();
      EXPECT_EQ(inspected->torn_tail_bytes, 0u) << segment;
      const bool live = segment == segments.back();
      EXPECT_EQ(inspected->padding_bytes > 0, live) << segment;
      const std::uintmax_t size = std::filesystem::file_size(segment);
      EXPECT_EQ(inspected->bytes + inspected->padding_bytes, size) << segment;
    }

    const std::size_t segments_before = SegmentFiles(dir).size();
    ASSERT_TRUE(journal.Checkpoint("post-rotation").ok());
    EXPECT_LT(SegmentFiles(dir).size(), segments_before)
        << "covered segments retire at the checkpoint";
    // Crash here (no detach).
  }
  FleetJournal journal;
  ASSERT_TRUE(journal.Open(dir, policy).ok());
  EXPECT_TRUE(journal.open_report().had_checkpoint);
  auto fleet = journal.Recover();
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ASSERT_TRUE(journal.Attach(&*fleet).ok());
  EXPECT_EQ(ServeSteps(&*fleet, 13, 18), control_tail);
  journal.Detach();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Recovery edge cases.
// ---------------------------------------------------------------------------

TEST(WalRecoveryTest, EmptyJournalRecoversAnEmptyFleet) {
  const std::string dir = TempDir("empty");
  FleetJournal journal;
  ASSERT_TRUE(journal.Open(dir).ok());
  EXPECT_EQ(journal.open_report().segments, 1u) << "a fresh active segment";
  EXPECT_EQ(journal.open_report().last_lsn, 0u);
  EXPECT_FALSE(journal.open_report().had_checkpoint);
  EXPECT_EQ(journal.open_report().tail_events, 0u);
  RecoveryReport report;
  auto fleet = journal.Recover({}, &report);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_EQ(fleet->size(), 0u);
  EXPECT_FALSE(report.had_checkpoint);
  EXPECT_EQ(report.events_replayed, 0u);
  std::filesystem::remove_all(dir);
}

TEST(WalRecoveryTest, ExactlyOneTornRecordIsTruncatedAndTheRestReplays) {
  const std::string dir = TempDir("torn");
  std::uint64_t durable_lsn = 0;
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    ScalerFleet fleet(0);
    RegisterTenants(&fleet);
    ASSERT_TRUE(EnableJournal(&fleet, &journal).ok());
    ServeSteps(&fleet, 1, 6);
    ASSERT_TRUE(journal.status().ok()) << journal.status().ToString();
    durable_lsn = journal.last_lsn();
  }
  // Tear the last record of the (single) segment at every byte offset
  // inside it: each cut is what a crash during its write can leave behind.
  const auto segments = SegmentFiles(dir);
  ASSERT_EQ(segments.size(), 1u);
  const std::string bytes = Slurp(segments[0]);
  const std::size_t last = LastFrameOffset(bytes);
  ASSERT_GT(last, 0u);
  const std::size_t frame_size = bytes.size() - last;
  for (std::size_t cut = 1; cut < frame_size; ++cut) {
    SCOPED_TRACE("record cut after " + std::to_string(cut) + " of " +
                 std::to_string(frame_size) + " bytes");
    Spit(segments[0], bytes.substr(0, last + cut));
    // Torn bytes run through the cut's last non-zero byte; zeros after it
    // read as preallocation padding, which is not counted as torn.
    const std::size_t nonzero =
        std::string_view(bytes).substr(last, cut).find_last_not_of('\0');
    const std::size_t torn =
        nonzero == std::string_view::npos ? 0 : nonzero + 1;
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    ASSERT_EQ(journal.open_report().truncated_bytes, torn);
    ASSERT_EQ(journal.open_report().last_lsn, durable_lsn - 1)
        << "exactly the torn record is lost";
    auto fleet = journal.Recover();
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    ASSERT_EQ(fleet->size(), 2u);
    // The truncation is durable: a second open sees a clean journal.
    FleetJournal again;
    ASSERT_TRUE(again.Open(dir).ok());
    ASSERT_EQ(again.open_report().truncated_bytes, 0u);
    ASSERT_EQ(again.open_report().last_lsn, durable_lsn - 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(WalRecoveryTest, CheckpointPastJournalEndIsAStaleSnapshotError) {
  const std::string dir = TempDir("stale");
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    ScalerFleet fleet(0);
    RegisterTenants(&fleet);
    ASSERT_TRUE(EnableJournal(&fleet, &journal).ok());
    ServeSteps(&fleet, 1, 4);
    ASSERT_TRUE(journal.Checkpoint().ok());
    ASSERT_GT(journal.checkpoint_lsn(), 0u);
  }
  // Lose the journal body but keep the checkpoint: truncate the segment to
  // its bare header. No crash can do this (the checkpoint fsyncs the
  // journal first), so Open must refuse rather than silently lose events.
  const auto segments = SegmentFiles(dir);
  ASSERT_EQ(segments.size(), 1u);
  Spit(segments[0], Slurp(segments[0]).substr(0, 16));

  FleetJournal journal;
  const Status st = journal.Open(dir);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("stale snapshot"), std::string::npos)
      << st.ToString();
  std::filesystem::remove_all(dir);
}

TEST(WalRecoveryTest, DoubleRecoveryIsIdempotent) {
  const std::string dir = TempDir("double");
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    ScalerFleet fleet(0);
    RegisterTenants(&fleet);
    ASSERT_TRUE(EnableJournal(&fleet, &journal).ok());
    ServeSteps(&fleet, 1, 8);
    ASSERT_TRUE(journal.status().ok()) << journal.status().ToString();
  }
  // Two independent recoveries of the same journal (the first is dropped
  // un-attached, as an operator inspecting a crashed host would) serve the
  // continuation identically — recovery mutates nothing it didn't repair.
  // Recovery replays the tail it holds and still holds it afterwards.
  std::vector<std::string> first;
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    const std::string held = EncodedTail(journal);
    ASSERT_FALSE(held.empty());
    auto fleet = journal.Recover();
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    EXPECT_EQ(EncodedTail(journal), held);
    first = ServeSteps(&*fleet, 9, 14);  // Un-journaled continuation probe.
  }
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    const std::string held = EncodedTail(journal);
    RecoveryReport report;
    auto fleet = journal.Recover({}, &report);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    EXPECT_GT(report.events_replayed, 0u);
    EXPECT_EQ(report.events_replayed, journal.tail().size());
    EXPECT_EQ(EncodedTail(journal), held);
    EXPECT_EQ(ServeSteps(&*fleet, 9, 14), first);
  }
  std::filesystem::remove_all(dir);
}

TEST(WalRecoveryTest, FailedTailReplayKeepsTheTail) {
  // A PlanAll record no fleet would produce: the tail replay diverges at
  // it, Recover fails, and the journal still holds every tail event.
  const std::string dir = TempDir("failed_replay");
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    ScalerFleet fleet(0);
    RegisterTenants(&fleet);
    ASSERT_TRUE(EnableJournal(&fleet, &journal).ok());
    ServeSteps(&fleet, 1, 4);
    std::vector<ScalerFleet::TenantPlan> plans(Tenants().size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      plans[i].tenant = Tenants()[i];
      plans[i].action.creation_times.assign(3, 1000.0);
    }
    journal.OnPlanAll(10.0, plans,
                      std::vector<api::TapClockMark>(plans.size()));
    ASSERT_TRUE(journal.status().ok()) << journal.status().ToString();
  }
  FleetJournal journal;
  ASSERT_TRUE(journal.Open(dir).ok());
  const std::string held = EncodedTail(journal);
  ASSERT_FALSE(held.empty());
  auto fleet = journal.Recover();
  ASSERT_FALSE(fleet.ok());
  EXPECT_NE(fleet.status().message().find("does not replay"),
            std::string::npos)
      << fleet.status().ToString();
  EXPECT_EQ(EncodedTail(journal), held);
  std::filesystem::remove_all(dir);
}

TEST(WalRecoveryTest, RecoverAfterAppendsIsRefusedUntilReopen) {
  const std::string dir = TempDir("recover_after_append");
  FleetJournal journal;
  ASSERT_TRUE(journal.Open(dir).ok());
  {
    ScalerFleet fleet(0);
    RegisterTenants(&fleet);
    ASSERT_TRUE(EnableJournal(&fleet, &journal).ok());
    ServeSteps(&fleet, 1, 4);
    ASSERT_TRUE(journal.status().ok()) << journal.status().ToString();
    journal.Detach();
  }
  // The tail Recover replays was frozen at Open() time; recovering through
  // this object now would silently drop every event appended above, so the
  // journal must refuse rather than return a fleet missing durable events.
  auto stale = journal.Recover();
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.status().message().find("appended since Open"),
            std::string::npos)
      << stale.status().ToString();
  // A fresh journal object scans the directory anew and sees everything.
  FleetJournal fresh;
  ASSERT_TRUE(fresh.Open(dir).ok());
  RecoveryReport report;
  auto fleet = fresh.Recover({}, &report);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_GT(report.events_replayed, 0u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// One event tap: the journal and the recorder emit the same stream.
// ---------------------------------------------------------------------------

/// Serves one deterministic session under `tap` that fires every tap
/// callback: the tap attaches mid-session (after untapped traffic), then
/// sees PlanAll batches, a retire + re-register, an immediate and a
/// plan-boundary model swap, and a single-tenant Plan.
template <typename Tap>
void ServeEveryCallback(Tap* tap) {
  ScalerFleet fleet(0);
  RegisterTenants(&fleet);
  ServeSteps(&fleet, 1, 3);
  ASSERT_TRUE(tap->Attach(&fleet).ok());
  ServeSteps(&fleet, 4, 6);
  ASSERT_TRUE(fleet.Retire("svc-a").ok());
  ASSERT_TRUE(
      fleet.Register("svc-a", BuildScaler("backup_pool:pool_size=1")).ok());
  ASSERT_TRUE(
      fleet.ReplaceModel("svc-b", BuildScaler("robust_hp:target=0.8")).ok());
  ASSERT_TRUE(
      fleet.ReplaceModelAtNextPlan("svc-a", BuildScaler("backup_pool")).ok());
  ServeSteps(&fleet, 7, 9);
  ASSERT_TRUE(fleet.Plan("svc-b", 19.0).ok());
  ServeSteps(&fleet, 10, 11);
  tap->Detach();
}

std::string EncodedEvent(const trace::Event& event) {
  persist::Writer writer;
  trace::EncodeEvent(&writer, event);
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(writer.Finish(out).ok());
  return std::move(out).str();
}

TEST(WalTapTest, JournalTailEqualsRecorderCaptureEventForEvent) {
  trace::Recorder recorder("wal_test tap equivalence");
  ServeEveryCallback(&recorder);
  const trace::Capture capture = recorder.TakeCapture();
  bool kinds[7] = {};
  for (const trace::Event& event : capture.events) {
    kinds[static_cast<std::size_t>(event.kind)] = true;
  }
  for (std::size_t kind = 1; kind <= 6; ++kind) {
    EXPECT_TRUE(kinds[kind]) << "the session never emitted "
                             << trace::EventKindName(
                                    static_cast<trace::EventKind>(kind));
  }

  const std::string dir = TempDir("tap_equivalence");
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    ServeEveryCallback(&journal);
    ASSERT_TRUE(journal.status().ok()) << journal.status().ToString();
  }
  FleetJournal reopened;
  ASSERT_TRUE(reopened.Open(dir).ok());
  const std::vector<trace::Event>& tail = reopened.tail();
  ASSERT_EQ(tail.size(), capture.events.size());
  for (std::size_t i = 0; i < tail.size(); ++i) {
    ASSERT_EQ(EncodedEvent(tail[i]), EncodedEvent(capture.events[i]))
        << "event " << i << " (" << trace::EventKindName(tail[i].kind)
        << ") differs between journal and capture";
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The append path: same bytes as a fresh encoder per record, no allocation.
// ---------------------------------------------------------------------------

/// The bare EncodeEvent bytes: a fresh persist::Writer's container, finished
/// through an ostringstream (EncodedEvent), without its 8-byte header and
/// 4-byte CRC trailer.
std::string BareEvent(const trace::Event& event) {
  const std::string container = EncodedEvent(event);
  return container.substr(8, container.size() - 12);
}

/// The byte oracle: one layout-version-2 record built by hand,
/// [lsn u64][len u32][crc u32] + the bare event bytes, the CRC chained over
/// the 12 header bytes and then the payload.
std::string OracleFrame(std::uint64_t lsn, const trace::Event& event) {
  const std::string payload = BareEvent(event);
  std::string frame;
  AppendLe(&frame, lsn, 8);
  AppendLe(&frame, payload.size(), 4);
  std::uint32_t crc = persist::Crc32(frame.data(), 12);
  crc = persist::Crc32(payload.data(), payload.size(), crc);
  AppendLe(&frame, crc, 4);
  return frame + payload;
}

/// The closed segment files a journal of `events` (LSN 1 on) under
/// `segment_bytes` must hold: "RSWJ", version 2, first LSN, then whole
/// frames; a frame that would overflow a non-empty segment starts the next
/// one, and one larger than a segment sits alone in it.
std::vector<std::string> OracleSegments(const std::vector<trace::Event>& events,
                                        std::uint64_t segment_bytes) {
  std::vector<std::string> expected;
  std::size_t records = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t lsn = i + 1;
    const std::string frame = OracleFrame(lsn, events[i]);
    if (expected.empty() ||
        (records > 0 && expected.back().size() + frame.size() > segment_bytes)) {
      expected.emplace_back("RSWJ");
      AppendLe(&expected.back(), 2, 4);
      AppendLe(&expected.back(), lsn, 8);
      records = 0;
    }
    expected.back() += frame;
    ++records;
  }
  return expected;
}

/// Every segment file in `dir` equals the oracle's, byte for byte.
void ExpectOracleSegments(const std::string& dir,
                          const std::vector<std::string>& expected) {
  const auto segments = SegmentFiles(dir);
  ASSERT_EQ(segments.size(), expected.size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    EXPECT_TRUE(Slurp(segments[i]) == expected[i])
        << segments[i] << " differs from the oracle's bytes";
  }
}

TEST(WalAppendTest, SegmentFilesEqualTheFreshEncoderOracleByteForByte) {
  // The event stream, from a Recorder serving the same session.
  trace::Recorder recorder("wal_test byte oracle");
  ServeEveryCallback(&recorder);
  const trace::Capture capture = recorder.TakeCapture();

  // Small segments: the session's scaler snapshots force rotations.
  JournalPolicy policy;
  policy.fsync = FsyncPolicy::kNone;
  policy.segment_bytes = 4096;
  const std::string dir = TempDir("byte_oracle");
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir, policy).ok());
    ServeEveryCallback(&journal);
    ASSERT_TRUE(journal.status().ok()) << journal.status().ToString();
    ASSERT_EQ(journal.last_lsn(), capture.events.size());
  }

  const std::vector<std::string> expected =
      OracleSegments(capture.events, policy.segment_bytes);
  ASSERT_GE(expected.size(), 2u) << "the session must rotate segments";
  ExpectOracleSegments(dir, expected);
  std::filesystem::remove_all(dir);
}

TEST(WalAppendTest, SteadyStateObserveAppendMakesNoHeapAllocation) {
  const std::string dir = TempDir("alloc_pin");
  JournalPolicy policy;
  policy.fsync = FsyncPolicy::kNone;
  FleetJournal journal;
  ASSERT_TRUE(journal.Open(dir, policy).ok());
  ScalerFleet fleet(0);
  RegisterTenants(&fleet);
  ASSERT_TRUE(EnableJournal(&fleet, &journal).ok());
  const std::string& tenant = Tenants()[0];
  const std::uint64_t lsn_before = journal.last_lsn();
  api::Scaler::ObserveOutcome outcome;
  journal.OnObserve(tenant, 1.0, outcome);  // Warms the reused buffers.

  g_heap_allocations.store(0);
  g_counting_allocations.store(true);
  for (int i = 1; i < 1000; ++i) {
    outcome.cold_start = i % 2 == 0;
    journal.OnObserve(tenant, 1.0 + 0.001 * i, outcome);
  }
  g_counting_allocations.store(false);

  EXPECT_EQ(g_heap_allocations.load(), 0u)
      << "heap allocations in 999 steady-state Observe appends";
  EXPECT_TRUE(journal.status().ok()) << journal.status().ToString();
  EXPECT_EQ(journal.last_lsn(), lsn_before + 1000);
  journal.Detach();
  std::filesystem::remove_all(dir);
}

TEST(WalAppendTest, ScalerSnapshotRecordDoesNotPinItsBufferCapacity) {
  const std::string dir = TempDir("bounded_buffers");
  JournalPolicy policy;
  policy.fsync = FsyncPolicy::kNone;
  FleetJournal journal;
  ASSERT_TRUE(journal.Open(dir, policy).ok());
  ScalerFleet fleet(0);
  RegisterTenants(&fleet);
  ASSERT_TRUE(EnableJournal(&fleet, &journal).ok());
  // A model swap embeds the incoming scaler's snapshot: a one-off record,
  // here made large by a forecast of 2000 bins.
  auto built = api::ScalerBuilder()
                   .WithTrace(MakeTrace(62, 4.0 * kPeriodS, 0.5))
                   .WithBinWidth(kDt)
                   .WithForecastHorizon(100.0 * kPeriodS)
                   .WithStrategy(api::StrategySpec{"robust_hp", {}})
                   .WithPlanningInterval(2.0)
                   .WithMcSamples(40)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const api::Scaler incoming = std::move(built).ValueOrDie();
  // The live segment is preallocated, so its record bytes come from the
  // segment scan, not the file size.
  const std::string segment = SegmentFiles(dir).back();
  const std::size_t size_before = InspectSegmentFile(segment)->bytes;
  const std::int64_t live_before = g_live_heap_bytes.load();
  journal.OnReplaceModel(Tenants()[1], incoming, /*at_next_plan=*/false);
  const std::int64_t retained = g_live_heap_bytes.load() - live_before;
  const std::size_t record = InspectSegmentFile(segment)->bytes - size_before;

  ASSERT_TRUE(journal.status().ok()) << journal.status().ToString();
  ASSERT_GT(record, 16u << 10);
  EXPECT_LT(retained, static_cast<std::int64_t>(record / 4))
      << "the journal still holds " << retained << " heap bytes after a "
      << record << "-byte record";
  journal.Detach();
  std::filesystem::remove_all(dir);
}

TEST(WalAppendTest, PlanAllRecordKeepsItsBufferCapacity) {
  const std::string dir = TempDir("planall_buffer");
  JournalPolicy policy;
  policy.fsync = FsyncPolicy::kNone;
  FleetJournal journal;
  ASSERT_TRUE(journal.Open(dir, policy).ok());
  ScalerFleet fleet(0);
  RegisterTenants(&fleet);
  ASSERT_TRUE(EnableJournal(&fleet, &journal).ok());
  // A PlanAll over a large fleet: every boundary writes a record about
  // this large, so its frame buffer is kept for the next one.
  std::vector<ScalerFleet::TenantPlan> plans(200);
  for (ScalerFleet::TenantPlan& plan : plans) {
    plan.tenant = Tenants()[0];
    plan.action.creation_times.assign(16, 3.0);
  }
  const std::vector<api::TapClockMark> clocks(plans.size());
  const std::string segment = SegmentFiles(dir).back();
  const std::size_t size_before = InspectSegmentFile(segment)->bytes;
  const std::int64_t live_before = g_live_heap_bytes.load();
  g_heap_allocations.store(0);
  g_counting_allocations.store(true);
  journal.OnPlanAll(2.0, plans, clocks);
  g_counting_allocations.store(false);
  const std::uint64_t first_allocations = g_heap_allocations.load();
  const std::int64_t retained = g_live_heap_bytes.load() - live_before;
  const std::size_t record = InspectSegmentFile(segment)->bytes - size_before;

  g_heap_allocations.store(0);
  g_counting_allocations.store(true);
  journal.OnPlanAll(4.0, plans, clocks);
  g_counting_allocations.store(false);
  const std::uint64_t second_allocations = g_heap_allocations.load();

  ASSERT_TRUE(journal.status().ok()) << journal.status().ToString();
  ASSERT_GT(record, 16u << 10);
  EXPECT_GE(retained, static_cast<std::int64_t>(record))
      << "the frame buffer was released after a PlanAll record";
  // The first record grew the frame buffer and the tap's PlanAll event;
  // the second reuses both, so a steady boundary allocates nothing.
  EXPECT_GT(first_allocations, 0u);
  EXPECT_EQ(second_allocations, 0u)
      << "the second PlanAll record allocated (a regrown frame buffer or "
         "a rebuilt event)";
  journal.Detach();
  std::filesystem::remove_all(dir);
}

TEST(WalAppendTest, RecordLargerThanTheSegmentGrowsTheMapping) {
  JournalPolicy policy;
  policy.fsync = FsyncPolicy::kNone;
  policy.segment_bytes = 4096;
  const std::string dir = TempDir("oversized");
  std::size_t record = 0;
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir, policy).ok());
    ScalerFleet fleet(0);
    RegisterTenants(&fleet);
    ASSERT_TRUE(EnableJournal(&fleet, &journal).ok());
    std::vector<ScalerFleet::TenantPlan> plans(200);
    for (ScalerFleet::TenantPlan& plan : plans) {
      plan.tenant = Tenants()[0];
      plan.action.creation_times.assign(16, 3.0);
    }
    journal.OnPlanAll(2.0, plans,
                      std::vector<api::TapClockMark>(plans.size()));
    ASSERT_TRUE(journal.status().ok()) << journal.status().ToString();
    // The oversized record sits alone in a segment grown to fit it.
    auto grown = InspectSegmentFile(SegmentFiles(dir).back());
    ASSERT_TRUE(grown.ok()) << grown.status().ToString();
    EXPECT_EQ(grown->records, 1u);
    EXPECT_EQ(grown->torn_tail_bytes, 0u);
    EXPECT_EQ(grown->padding_bytes, 0u);
    record = grown->bytes;
    ASSERT_GT(record, 4 * policy.segment_bytes);
    ServeSteps(&fleet, 3, 4);  // Rotates past the grown segment.
    ASSERT_TRUE(journal.status().ok()) << journal.status().ToString();
    journal.Detach();
  }
  std::size_t records = 0;
  for (const std::string& segment : SegmentFiles(dir)) {
    auto inspected = InspectSegmentFile(segment);
    ASSERT_TRUE(inspected.ok()) << inspected.status().ToString();
    EXPECT_EQ(inspected->torn_tail_bytes + inspected->padding_bytes, 0u);
    EXPECT_EQ(inspected->bytes, std::filesystem::file_size(segment));
    records += inspected->records;
  }
  FleetJournal reopened;
  ASSERT_TRUE(reopened.Open(dir, policy).ok());
  EXPECT_EQ(reopened.last_lsn(), records);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The append helper: the active segment's pages are populated for writing
// ahead of the cursor, on the journal's own thread.
// ---------------------------------------------------------------------------

// Sanitizers keep shadow memory for every mapped byte, and the serving
// thread's first look at a shadow page faults whatever the journal does;
// under them the helper tests check bytes and lifetimes, not fault counts.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kCountsFaults = false;
#else
constexpr bool kCountsFaults = true;
#endif

/// Minor page faults the calling thread has taken since it started.
std::uint64_t ThreadMinorFaults() {
  rusage usage{};
  EXPECT_EQ(::getrusage(RUSAGE_THREAD, &usage), 0);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

/// Waits, at most 20 s, for the helper to populate the active segment
/// through `end`.
bool WaitPopulated(const FleetJournal& journal, std::uint64_t end) {
  for (int i = 0; i < 20000 && journal.populated_end() < end; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return journal.populated_end() >= end;
}

/// A PlanAll batch of `tenants` plans, each creating `creations` instances.
std::vector<ScalerFleet::TenantPlan> Plans(std::size_t tenants,
                                           std::size_t creations) {
  std::vector<ScalerFleet::TenantPlan> plans(tenants);
  for (std::size_t i = 0; i < tenants; ++i) {
    plans[i].tenant = Tenants()[i % Tenants().size()];
    plans[i].action.creation_times.assign(creations, 3.0 + i);
  }
  return plans;
}

/// Bytes a 100-tenant boundary covers: an Observe record is ~30 B, a
/// PlanAll record several kB, so this holds 400 Observes and 8 boundaries.
constexpr std::uint64_t kMeasuredBytes = 96 << 10;

/// Once the window ahead of the cursor is populated, 400 Observe records
/// and 8 PlanAll records of a 100-tenant boundary land in it without one
/// page fault on the calling thread.
void ExpectAppendsInsideTheWindowDoNotFault(FleetJournal* journal,
                                            const std::string& dir,
                                            double now) {
  const std::string segment = SegmentFiles(dir).back();
  const std::uint64_t cursor = InspectSegmentFile(segment)->bytes;
  ASSERT_TRUE(WaitPopulated(*journal, cursor + kMeasuredBytes))
      << "the helper populated through " << journal->populated_end()
      << ", short of " << cursor + kMeasuredBytes;
  const std::uint64_t populated = journal->populated_end();
  const auto boundary = Plans(100, 4);
  const std::vector<api::TapClockMark> clocks(boundary.size());
  api::Scaler::ObserveOutcome outcome;

  const std::uint64_t faults_before = ThreadMinorFaults();
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 50; ++i) {
      journal->OnObserve(Tenants()[i % 2], now + 0.01 * i, outcome);
    }
    journal->OnPlanAll(now + 1.0, boundary, clocks);
    now += 2.0;
  }
  const std::uint64_t faults = ThreadMinorFaults() - faults_before;

  ASSERT_TRUE(journal->status().ok()) << journal->status().ToString();
  const std::uint64_t end = InspectSegmentFile(segment)->bytes;
  ASSERT_LE(end, populated) << "the measured records overran the window";
  ASSERT_GT(end - cursor, 8 * 4096u) << "the PlanAll records are too small";
  if (kCountsFaults) {
    EXPECT_EQ(faults, 0u) << "page faults on the serving thread while "
                          << end - cursor << " bytes went into "
                          << populated - cursor << " populated bytes";
  }
}

/// A journal under kNone with both tenants attached, whose sync interval
/// has grown past the helper's largest window.
void OpenWarmJournal(FleetJournal* journal, ScalerFleet* fleet,
                     const std::string& dir) {
  JournalPolicy policy;
  policy.fsync = FsyncPolicy::kNone;
  ASSERT_TRUE(journal->Open(dir, policy).ok());
  RegisterTenants(fleet);
  ASSERT_TRUE(EnableJournal(fleet, journal).ok());
  const auto boundary = Plans(100, 4);
  const std::vector<api::TapClockMark> clocks(boundary.size());
  for (int i = 0; i < 120; ++i) journal->OnPlanAll(1.0 + i, boundary, clocks);
  ASSERT_TRUE(journal->status().ok()) << journal->status().ToString();
}

TEST(WalPrefaultTest, AppendsInsideThePopulatedWindowTakeNoPageFault) {
  const std::string dir = TempDir("prefault_window");
  FleetJournal journal;
  ScalerFleet fleet(0);
  OpenWarmJournal(&journal, &fleet, dir);
  ExpectAppendsInsideTheWindowDoNotFault(&journal, dir, 200.0);
  journal.Detach();
  std::filesystem::remove_all(dir);
}

TEST(WalPrefaultTest, SyncRearmsTheWindow) {
  // fsync writes the populated pages back and write-protects them again;
  // the helper populates them anew from the cursor's page.
  const std::string dir = TempDir("prefault_rearm");
  FleetJournal journal;
  ScalerFleet fleet(0);
  OpenWarmJournal(&journal, &fleet, dir);
  ExpectAppendsInsideTheWindowDoNotFault(&journal, dir, 200.0);
  const auto boundary = Plans(100, 4);
  const std::vector<api::TapClockMark> clocks(boundary.size());
  for (int sync = 0; sync < 3; ++sync) {
    // The window after a sync spans at most the interval it closed.
    for (int i = 0; i < 40; ++i) {
      journal.OnPlanAll(300.0 + 100 * sync + i, boundary, clocks);
    }
    ASSERT_TRUE(journal.Sync().ok());
    ExpectAppendsInsideTheWindowDoNotFault(&journal, dir, 350.0 + 100 * sync);
  }
  journal.Detach();
  std::filesystem::remove_all(dir);
}

/// Rounds of 40 Observes and a 100-tenant PlanAll through `tap`, with a
/// 200-tenant PlanAll every fifth round.
template <typename Tap>
void ServeLargeRecords(Tap* tap, int rounds) {
  ScalerFleet fleet(0);
  RegisterTenants(&fleet);
  ASSERT_TRUE(tap->Attach(&fleet).ok());
  const auto boundary = Plans(100, 4);
  const auto oversized = Plans(200, 16);
  const std::vector<api::TapClockMark> clocks(oversized.size());
  api::Scaler::ObserveOutcome outcome;
  for (int round = 0; round < rounds; ++round) {
    const double now = 2.0 * round;
    for (int i = 0; i < 40; ++i) {
      outcome.cold_start = i % 3 == 0;
      tap->OnObserve(Tenants()[i % 2], now + 0.01 * i, outcome);
    }
    tap->OnPlanAll(now + 1.0, boundary, clocks);
    if (round % 5 == 4) tap->OnPlanAll(now + 1.5, oversized, clocks);
  }
  tap->Detach();
}

TEST(WalPrefaultTest, RotationAndGrowthUnderTheHelperKeepEveryByte) {
  trace::Recorder recorder("wal_test prefault oracle");
  ServeLargeRecords(&recorder, 40);
  const trace::Capture capture = recorder.TakeCapture();

  // 16 KiB segments: a 200-tenant PlanAll outsizes the preallocation (the
  // grow path), and every few rounds the active segment rotates, each
  // time while the helper may be populating the mapping it leaves.
  JournalPolicy policy;
  policy.fsync = FsyncPolicy::kNone;
  policy.segment_bytes = 16 << 10;
  const std::string dir = TempDir("prefault_rotation");
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir, policy).ok());
    ServeLargeRecords(&journal, 40);
    ASSERT_TRUE(journal.status().ok()) << journal.status().ToString();
    ASSERT_EQ(journal.last_lsn(), capture.events.size());
  }
  const std::vector<std::string> expected =
      OracleSegments(capture.events, policy.segment_bytes);
  ASSERT_GE(expected.size(), 20u) << "the session must rotate segments";
  std::size_t grown = 0;
  for (const std::string& segment : expected) {
    grown += segment.size() > policy.segment_bytes ? 1 : 0;
  }
  ASSERT_GE(grown, 4u) << "the session must outsize the preallocation";
  ExpectOracleSegments(dir, expected);
  std::filesystem::remove_all(dir);
}

TEST(WalPrefaultTest, DestroyingTheJournalWhileTheHelperRunsKeepsEveryByte) {
  trace::Recorder recorder("wal_test prefault destroy");
  ServeLargeRecords(&recorder, 3);
  const trace::Capture capture = recorder.TakeCapture();
  JournalPolicy policy;
  policy.fsync = FsyncPolicy::kNone;
  const std::vector<std::string> expected =
      OracleSegments(capture.events, policy.segment_bytes);
  ASSERT_EQ(expected.size(), 1u);
  // Each journal dies right after its last append asked the helper for a
  // window of up to 256 KiB: the destructor waits out that madvise before
  // it unmaps and cuts the segment.
  for (int round = 0; round < 20; ++round) {
    const std::string dir = TempDir("prefault_destroy");
    {
      FleetJournal journal;
      ASSERT_TRUE(journal.Open(dir, policy).ok());
      ServeLargeRecords(&journal, 3);
      ASSERT_TRUE(journal.status().ok()) << journal.status().ToString();
    }
    ExpectOracleSegments(dir, expected);
    std::filesystem::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// Layout version 1 stays readable.
// ---------------------------------------------------------------------------

/// A committed test artifact under tests/data/.
std::string DataFile(const char* name) {
  return (std::filesystem::path(__FILE__).parent_path() / "data" / name)
      .string();
}

/// FNV-1a 64 over `bytes`, chained through `hash`.
std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The segment header's layout version word.
std::uint64_t SegmentVersion(const std::string& path) {
  return ReadLe(Slurp(path), 4, 4);
}

/// Rewrites every segment in `dir` in layout version 1, built from
/// docs/WAL_FORMAT.md: each v1 payload is a complete rs::persist container
/// ("RSNP", format 1, the bare event, CRC trailer) under a re-computed
/// frame CRC. Segments already in version 1 are left alone; the segments
/// must be cleanly closed (no padding).
void RewriteSegmentsAsV1(const std::string& dir) {
  for (const std::string& path : SegmentFiles(dir)) {
    const std::string bytes = Slurp(path);
    if (ReadLe(bytes, 4, 4) == 1) continue;
    std::string out = bytes.substr(0, 4);
    AppendLe(&out, 1, 4);
    out += bytes.substr(8, 8);
    for (std::size_t offset = 16; offset + 16 <= bytes.size();) {
      const std::size_t len = ReadLe(bytes, offset + 8, 4);
      std::string payload = "RSNP";
      AppendLe(&payload, 1, 4);
      payload += bytes.substr(offset + 16, len);
      AppendLe(&payload, persist::Crc32(payload.data(), payload.size()), 4);
      const std::size_t frame = out.size();
      out += bytes.substr(offset, 8);
      AppendLe(&out, payload.size(), 4);
      std::uint32_t crc = persist::Crc32(out.data() + frame, 12);
      crc = persist::Crc32(payload.data(), payload.size(), crc);
      AppendLe(&out, crc, 4);
      out += payload;
      offset += 16 + len;
    }
    Spit(path, out);
  }
}

TEST(WalFormatV1Test, CommittedV1SegmentDecodesToPinnedEvents) {
  // tests/data/example_v1.rswal is the example segment exactly as the
  // version-1 writer left it (rs_crashtest gen-example), never regenerated.
  const std::string fixture = DataFile("example_v1.rswal");
  ASSERT_EQ(SegmentVersion(fixture), 1u);
  auto report = InspectSegmentFile(fixture);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->first_lsn, 1u);
  EXPECT_EQ(report->last_lsn, 8u);
  EXPECT_EQ(report->records, 8u);
  EXPECT_EQ(report->bytes, std::filesystem::file_size(fixture));
  EXPECT_EQ(report->torn_tail_bytes + report->padding_bytes, 0u);

  // The decode: a journal over a copy of the segment holds its events as
  // its tail (no checkpoint covers any of them).
  const std::string dir = TempDir("v1_fixture");
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(fixture, dir + "/wal-0000000000000001.rswal");
  FleetJournal journal;
  ASSERT_TRUE(journal.Open(dir).ok());
  EXPECT_EQ(journal.last_lsn(), 8u);
  std::uint64_t digest = Fnv1a("");
  std::string kinds;
  for (const trace::Event& event : journal.tail()) {
    kinds += trace::EventKindName(event.kind);
    kinds += ' ';
    digest = Fnv1a(EncodedEvent(event), digest);
  }
  EXPECT_EQ(kinds,
            "register register observe observe plan-all observe observe "
            "plan-all ");
  EXPECT_EQ(digest, 0x64700f9b549b0146ULL) << std::hex << "digest 0x" << digest;
  std::filesystem::remove_all(dir);
}

TEST(WalFormatV1Test, V1JournalWithCheckpointContinuesByteIdentically) {
  ScalerFleet control(0);
  RegisterTenants(&control);
  ServeSteps(&control, 1, 20);
  const auto control_tail = ServeSteps(&control, 21, 30);

  const std::string dir = TempDir("v1_checkpointed");
  JournalThenCrash(dir, JournalPolicy{}, /*crash_step=*/20,
                   /*checkpoint_midway=*/true);
  RewriteSegmentsAsV1(dir);
  ASSERT_TRUE(std::filesystem::exists(dir + "/checkpoint.rsnp"));
  for (const std::string& segment : SegmentFiles(dir)) {
    ASSERT_EQ(SegmentVersion(segment), 1u) << segment;
  }
  EXPECT_EQ(RecoverAndContinue(dir, JournalPolicy{}, /*crash_step=*/20,
                               /*last_step=*/30, /*recover_workers=*/0),
            control_tail);
  std::filesystem::remove_all(dir);
}

TEST(WalFormatV1Test, V1JournalReopenedByTheV2WriterRecoversAcrossBoth) {
  ScalerFleet control(0);
  RegisterTenants(&control);
  ServeSteps(&control, 1, 20);
  const auto control_tail = ServeSteps(&control, 21, 30);

  JournalPolicy policy;
  policy.segment_bytes = 4096;  // Several segments of each layout.
  const std::string dir = TempDir("v1_then_v2");
  JournalThenCrash(dir, policy, /*crash_step=*/10, /*checkpoint_midway=*/true);
  RewriteSegmentsAsV1(dir);
  const std::size_t v1_segments = SegmentFiles(dir).size();
  // The current writer recovers the v1 journal, journals steps 11..20 in
  // fresh segments, and crashes.
  RecoverAndContinue(dir, policy, /*crash_step=*/10, /*last_step=*/20,
                     /*recover_workers=*/0);
  std::vector<std::uint64_t> versions;
  for (const std::string& segment : SegmentFiles(dir)) {
    versions.push_back(SegmentVersion(segment));
    auto inspected = InspectSegmentFile(segment);
    ASSERT_TRUE(inspected.ok()) << inspected.status().ToString();
    EXPECT_EQ(inspected->version, versions.back()) << segment;
  }
  ASSERT_GT(versions.size(), v1_segments);
  EXPECT_EQ(versions.front(), 1u);
  EXPECT_EQ(versions.back(), 2u);
  EXPECT_TRUE(std::is_sorted(versions.begin(), versions.end()))
      << "v1 segments, then v2 segments";

  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{8}}) {
    const std::string copy =
        TempDir(("v1_then_v2_w" + std::to_string(workers)).c_str());
    std::filesystem::copy(dir, copy);
    EXPECT_EQ(RecoverAndContinue(copy, policy, /*crash_step=*/20,
                                 /*last_step=*/30, workers),
              control_tail)
        << workers << " workers";
    std::filesystem::remove_all(copy);
  }
  std::filesystem::remove_all(dir);
}

TEST(WalFormatV1Test, EmptyV1SegmentIsReplacedUnderItsOwnName) {
  ScalerFleet control(0);
  RegisterTenants(&control);
  ServeSteps(&control, 1, 10);
  const auto control_tail = ServeSteps(&control, 11, 16);

  const std::string dir = TempDir("v1_empty");
  {
    FleetJournal journal;  // Leaves one empty segment.
    ASSERT_TRUE(journal.Open(dir).ok());
  }
  RewriteSegmentsAsV1(dir);
  ASSERT_EQ(SegmentFiles(dir).size(), 1u);
  ASSERT_EQ(SegmentVersion(SegmentFiles(dir)[0]), 1u);
  EXPECT_EQ(CrashAndContinue(dir, JournalPolicy{}, /*crash_step=*/10,
                             /*last_step=*/16, /*recover_workers=*/0),
            control_tail);
  const auto segments = SegmentFiles(dir);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(SegmentVersion(segments[0]), 2u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Fail-stop degradation under injected journal faults.
// ---------------------------------------------------------------------------

fault::FaultRule WalFaultRule(const char* site, std::uint64_t hit,
                              std::uint64_t period = 0) {
  fault::FaultRule rule;
  rule.site = site;
  rule.hit = hit;
  rule.period = period;
  rule.fault.code = StatusCode::kIoError;
  return rule;
}

TEST(WalFaultTest, TransientAppendFaultIsRetriedInvisibly) {
  const std::string dir = TempDir("transient");
  FleetJournal journal;
  ASSERT_TRUE(journal.Open(dir).ok());
  ScalerFleet fleet(0);
  RegisterTenants(&fleet);
  fault::FaultPlan plan;
  plan.rules.push_back(WalFaultRule("wal.append", /*hit=*/3));  // One miss.
  fault::ScopedFaultInjection inject(std::move(plan));
  ASSERT_TRUE(EnableJournal(&fleet, &journal).ok());
  ServeSteps(&fleet, 1, 4);
  EXPECT_TRUE(journal.status().ok()) << journal.status().ToString();
  EXPECT_EQ(inject.total_fired(), 1u);
  journal.Detach();
  std::filesystem::remove_all(dir);
}

TEST(WalFaultTest, ExhaustedAppendRetriesFailStopButServingContinues) {
  const std::string dir = TempDir("failstop");
  std::uint64_t durable_lsn = 0;
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir).ok());
    ScalerFleet fleet(0);
    RegisterTenants(&fleet);
    ASSERT_TRUE(EnableJournal(&fleet, &journal).ok());
    ServeSteps(&fleet, 1, 4);
    ASSERT_TRUE(journal.status().ok());
    durable_lsn = journal.last_lsn();

    fault::FaultPlan plan;
    plan.rules.push_back(
        WalFaultRule("wal.append", /*hit=*/1, /*period=*/1));  // Every hit.
    fault::ScopedFaultInjection inject(std::move(plan));
    const auto before = ServeSteps(&fleet, 5, 6);
    EXPECT_FALSE(journal.status().ok()) << "journal must fail-stop";
    EXPECT_EQ(journal.status().code(), StatusCode::kIoError);
    EXPECT_NE(journal.status().message().find("fail-stop"), std::string::npos);
    EXPECT_EQ(journal.last_lsn(), durable_lsn) << "no partial appends count";
    EXPECT_EQ(before.size(), 2 * Tenants().size())
        << "serving continues unjournaled";
    // Checkpoint and Sync surface the sticky error rather than lying.
    EXPECT_FALSE(journal.Checkpoint().ok());
    journal.Detach();
  }
  // The durable prefix (steps 1..4) still recovers cleanly.
  FleetJournal journal;
  ASSERT_TRUE(journal.Open(dir).ok());
  EXPECT_EQ(journal.open_report().last_lsn, durable_lsn);
  auto fleet = journal.Recover();
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_EQ(fleet->size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(WalFaultTest, RotationFaultFailStopsAndDurablePrefixRecovers) {
  JournalPolicy policy;
  policy.segment_bytes = 512;
  const std::string dir = TempDir("rotfault");
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir, policy).ok());
    ScalerFleet fleet(0);
    RegisterTenants(&fleet);
    fault::FaultPlan plan;
    plan.rules.push_back(
        WalFaultRule("wal.rotate", /*hit=*/1, /*period=*/1));
    fault::ScopedFaultInjection inject(std::move(plan));
    ASSERT_TRUE(EnableJournal(&fleet, &journal).ok());
    ServeSteps(&fleet, 1, 12);  // Enough to need a rotation.
    EXPECT_FALSE(journal.status().ok()) << "rotation must fail-stop";
    journal.Detach();
  }
  FleetJournal journal;
  ASSERT_TRUE(journal.Open(dir, policy).ok());
  auto fleet = journal.Recover();
  EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Corruption robustness (runs under ASan/UBSan in CI).
// ---------------------------------------------------------------------------

/// A small journal directory with one checkpoint and a multi-record segment,
/// built once and copied per mutation probe.
struct CorruptionFixture {
  std::string segment_bytes;
  std::string checkpoint_bytes;
};

const CorruptionFixture& Fixture() {
  static const CorruptionFixture fixture = [] {
    CorruptionFixture f;
    const std::string dir = TempDir("fuzz_base");
    {
      FleetJournal journal;
      EXPECT_TRUE(journal.Open(dir).ok());
      ScalerFleet fleet(0);
      EXPECT_TRUE(fleet.Register("svc-a", BuildScaler("backup_pool")).ok());
      EXPECT_TRUE(
          fleet.Register("svc-b", BuildScaler("robust_hp:target=0.9")).ok());
      EXPECT_TRUE(EnableJournal(&fleet, &journal).ok());
      for (int step = 1; step <= 6; ++step) {
        const double now = 2.0 * step;
        EXPECT_TRUE(fleet.Observe("svc-a", now - 1.0).ok());
        EXPECT_TRUE(fleet.Observe("svc-b", now - 0.99).ok());
        for (const auto& plan : fleet.PlanAll(now)) {
          EXPECT_TRUE(plan.status.ok());
        }
      }
      EXPECT_TRUE(journal.Checkpoint("fuzz fixture").ok());
      // A few post-checkpoint events so recovery has a tail to decode.
      EXPECT_TRUE(fleet.Observe("svc-a", 13.0).ok());
      for (const auto& plan : fleet.PlanAll(14.0)) {
        EXPECT_TRUE(plan.status.ok());
      }
      journal.Detach();
    }  // Closing the journal cuts its preallocated segment to the records.
    const auto segments = SegmentFiles(dir);
    EXPECT_EQ(segments.size(), 1u);
    f.segment_bytes = Slurp(segments[0]);
    f.checkpoint_bytes = Slurp(dir + "/checkpoint.rsnp");
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    return f;
  }();
  return fixture;
}

TEST(WalCorruptionTest, EveryProbedSegmentTruncationFailsCleanly) {
  const std::string& bytes = Fixture().segment_bytes;
  ASSERT_GT(bytes.size(), 64u);
  const std::string dir = TempDir("fuzz_trunc");
  const std::string path = dir + "/wal-0000000000000001.rswal";
  std::filesystem::create_directories(dir);
  // Every prefix length in a stride-sampled sweep (plus the boundary
  // neighborhood): InspectSegmentFile and a full Open must return a Status
  // or a torn-tail report — never crash or read out of bounds.
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 97);
  for (std::size_t len = 0; len <= bytes.size(); len += stride) {
    Spit(path, bytes.substr(0, len));
    auto inspected = InspectSegmentFile(path);
    if (inspected.ok()) {
      EXPECT_LE(inspected->torn_tail_bytes, len);
    }
    FleetJournal journal;
    (void)journal.Open(dir);  // Any Status is fine; crashing is not.
    std::filesystem::remove(dir + "/checkpoint.rsnp");
  }
  std::filesystem::remove_all(dir);
}

TEST(WalCorruptionTest, EveryProbedSegmentBitFlipFailsCleanly) {
  const std::string& bytes = Fixture().segment_bytes;
  const std::string dir = TempDir("fuzz_flip");
  const std::string path = dir + "/wal-0000000000000001.rswal";
  std::filesystem::create_directories(dir);
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 97);
  for (std::size_t pos = 0; pos < bytes.size(); pos += stride) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
      Spit(path, mutated);
      auto inspected = InspectSegmentFile(path);
      // A flip in the torn-tail region may legally truncate; a flip in a
      // record body must be caught by the frame CRC. Either way: a clean
      // result, never UB.
      if (inspected.ok()) {
        EXPECT_LE(inspected->records, 64u);
      }
      FleetJournal journal;
      (void)journal.Open(dir);
      std::filesystem::remove(dir + "/checkpoint.rsnp");
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(WalCorruptionTest, CheckpointTruncationsAndFlipsFailCleanly) {
  const CorruptionFixture& f = Fixture();
  const std::string dir = TempDir("fuzz_ckpt");
  std::filesystem::create_directories(dir);
  const std::string segment = dir + "/wal-0000000000000001.rswal";
  const std::string checkpoint = dir + "/checkpoint.rsnp";
  const std::size_t stride =
      std::max<std::size_t>(1, f.checkpoint_bytes.size() / 61);
  for (std::size_t len = 0; len < f.checkpoint_bytes.size(); len += stride) {
    Spit(segment, f.segment_bytes);
    Spit(checkpoint, f.checkpoint_bytes.substr(0, len));
    FleetJournal journal;
    const Status st = journal.Open(dir);
    EXPECT_FALSE(st.ok()) << "truncated checkpoint at " << len;
  }
  for (std::size_t pos = 0; pos < f.checkpoint_bytes.size(); pos += stride) {
    std::string mutated = f.checkpoint_bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x10);
    Spit(segment, f.segment_bytes);
    Spit(checkpoint, mutated);
    FleetJournal journal;
    // The container CRC catches every flip; recovery never sees garbage.
    EXPECT_FALSE(journal.Open(dir).ok()) << "flipped checkpoint at " << pos;
  }
  std::filesystem::remove_all(dir);
}

TEST(WalCorruptionTest, CheckpointNextIdOutsideTheIdRangeIsRejected) {
  // A CRC-valid checkpoint whose intern counter cannot be a u32 tenant id:
  // Open must refuse it instead of wrapping the counter and reusing ids.
  const std::string dir = TempDir("ckpt_next_id");
  std::filesystem::create_directories(dir);
  for (const std::uint64_t next_id :
       {std::uint64_t{0}, std::uint64_t{1} << 32}) {
    persist::Writer writer;
    writer.BeginSection(persist::kTagWalCheckpoint);
    writer.WriteU32(1);  // wal layer version
    writer.WriteU64(0);  // checkpoint LSN
    writer.WriteU64(next_id);
    writer.WriteU64(0);  // no intern entries
    writer.WriteString("");
    writer.EndSection();
    std::ostringstream encoded(std::ios::binary);
    ASSERT_TRUE(writer.Finish(encoded).ok());
    Spit(dir + "/checkpoint.rsnp", encoded.str());
    FleetJournal journal;
    const Status st = journal.Open(dir);
    ASSERT_FALSE(st.ok()) << "next_id " << next_id;
    EXPECT_NE(st.message().find("32-bit id range"), std::string::npos)
        << st.ToString();
  }
  std::filesystem::remove_all(dir);
}

TEST(WalCorruptionTest, MidJournalCorruptionIsAHardErrorNotATornTail) {
  JournalPolicy policy;
  policy.segment_bytes = 512;
  const std::string dir = TempDir("midfile");
  {
    FleetJournal journal;
    ASSERT_TRUE(journal.Open(dir, policy).ok());
    ScalerFleet fleet(0);
    RegisterTenants(&fleet);
    ASSERT_TRUE(EnableJournal(&fleet, &journal).ok());
    ServeSteps(&fleet, 1, 12);
    ASSERT_TRUE(journal.status().ok());
    journal.Detach();
  }
  const auto segments = SegmentFiles(dir);
  ASSERT_GT(segments.size(), 2u);
  // Flip one byte inside a record of the FIRST segment: that can never be a
  // torn tail (crashes only tear the journal's end), so Open must refuse.
  const std::string intact = Slurp(segments[0]);
  std::string bytes = intact;
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  Spit(segments[0], bytes);
  FleetJournal journal;
  const Status st = journal.Open(dir);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cannot be a torn tail"), std::string::npos)
      << st.ToString();
  // Rotation cuts every retired segment to its records, so zero padding is
  // corruption there too.
  Spit(segments[0], intact + std::string(100, '\0'));
  FleetJournal padded;
  const Status padded_st = padded.Open(dir);
  ASSERT_FALSE(padded_st.ok());
  EXPECT_NE(padded_st.message().find("zero padding"), std::string::npos)
      << padded_st.ToString();
  std::filesystem::remove_all(dir);
}

TEST(WalInspectTest, ReportsFramesAndTornTail) {
  const CorruptionFixture& f = Fixture();
  const std::string dir = TempDir("inspect");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/wal-0000000000000001.rswal";
  Spit(path, f.segment_bytes);
  auto whole = InspectSegmentFile(path);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole->first_lsn, 1u);
  EXPECT_GT(whole->records, 10u);
  EXPECT_EQ(whole->last_lsn, whole->records);
  EXPECT_EQ(whole->torn_tail_bytes, 0u);
  EXPECT_EQ(whole->bytes, f.segment_bytes.size());

  Spit(path, f.segment_bytes.substr(0, f.segment_bytes.size() - 3));
  auto torn = InspectSegmentFile(path);
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  EXPECT_EQ(torn->records, whole->records - 1);
  EXPECT_GT(torn->torn_tail_bytes, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rs::wal

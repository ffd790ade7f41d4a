/// \file wal.hpp
/// \brief Write-ahead event journal + crash-consistent recovery — the
///        rs::wal subsystem.
///
/// PR 6 made serving state durable via snapshots; everything between two
/// snapshots was still volatile. This layer closes the gap the way
/// production systems do (ARIES-style write-ahead logging): every serving
/// event the fleet emits — register, retire, replace-model, observe, plan
/// boundaries — is appended to an on-disk journal *as it happens*, each
/// record CRC-framed and LSN-stamped, so a kill -9 at any instruction
/// boundary loses nothing that a caller already saw succeed:
///
///   recovery = load the last checkpoint (a fleet snapshot tied to a
///   journal LSN) + replay the journal tail through rs::trace::Replay
///   into the restored fleet, verifying every replayed action
///   byte-for-byte against what the journal recorded.
///
/// The journal *is* the trace: records carry the exact rs::trace event
/// encoding (one wire format shared by capture and journal —
/// trace::EncodeEvent/DecodeEvent), and FleetJournal is a trace::EventTap
/// like trace::Recorder — the same callbacks build the same events with
/// the same tenant interning; only Emit differs. The tap runs on the
/// caller thread after the operation applies, so a crash between apply and
/// append can only lose results the caller never received — never an
/// acknowledged one once the fsync policy's durability point has passed.
///
/// Layering note: ISSUE 10 sketches `ScalerFleet::EnableJournal`; the api
/// layer sits *below* trace/wal in the strictly-downward link graph, so a
/// member function would invert the dependency. The same wiring ships as
/// wal::EnableJournal(fleet, journal) — one call, same semantics, no cycle.
///
/// Failure semantics mirror the rest of the repo: append/fsync/rotate
/// failures (fault sites wal.append / wal.fsync / wal.rotate, stormed by
/// MakeStormPlan) are retried, then the journal fail-stops — status()
/// turns sticky-broken, serving continues unjournaled, and recovery still
/// replays the durable prefix. A real fsync() error skips the retries and
/// fail-stops at once, because retrying would lie: Linux may drop the dirty
/// pages, so a later fsync returning 0 proves nothing ("fsyncgate").
///
/// Where the bytes live: the active segment is preallocated to
/// JournalPolicy::segment_bytes and mapped MAP_SHARED, and an append is one
/// memcpy into that mapping — the same page cache a write() fills, so a
/// record is out of the process when Emit returns, and fsync(2) on the
/// segment writes it back. Closing or rotating a segment truncates it to
/// its data end; a killed process leaves the zero padding, which readers
/// skip on the journal's last segment (docs/WAL_FORMAT.md §2.3).
///
/// The first store to a fresh page of the mapping would take a page fault
/// (4-7 µs) on the serving thread. So the journal keeps one helper thread
/// that populates the active segment's pages for writing
/// (madvise MADV_POPULATE_WRITE, Linux >= 5.14) a bounded window ahead of
/// the append cursor, and the memcpy lands on pages already mapped
/// writable. The helper starts on the first append after Open, so Open
/// and Recover never start or wait for it. An append costs the caller one
/// compare, and a wake-up (no allocation) when the cursor comes within
/// half a window of what the helper was asked for.
///   * Window: at most 256 KiB, and at most the bytes appended per sync
///     interval (the previous interval's or the current one's so far,
///     whichever is larger), because each fsync also writes back the zero
///     pages populated ahead. Under a page the helper stands aside:
///     every-record and small every-n journals append as before.
///   * Re-arm: writeback write-protects a populated page again, so after
///     every fsync (policy, Sync, Checkpoint, rotation) population restarts
///     at the cursor's page.
///   * Lifetime: the helper is idle and has let go of the mapping before
///     rotation, the grow path or the destructor truncates or unmaps it,
///     and it follows each new segment.
///   * Fallback: EINVAL or ENOSYS from madvise retires the helper and
///     appends fault as they did without it; any other error skips that
///     window. Population writes no byte, so no segment, checkpoint or
///     crash window depends on it.
/// A process that forks must not do so while a journal of its own is
/// appending: the child would inherit the helper's lock but not its thread.
///
/// Residual risk of the mapping: a few I/O failures arrive as SIGBUS, not
/// as a fail-stop Status — a page read back in with EIO after writeback
/// evicted it, or another process truncating the segment. Either kills the
/// process, which the journal already recovers from. Running out of space
/// is not among them: preallocation reports it as a Status when a segment
/// is created or grown.
/// (Crotty, Leis & Pavlo, "Are You Sure You Want to Use MMAP in Your
/// Database Management System?", CIDR 2022, lists the general caveats; for
/// an append-only log only error handling applies.)
///
/// docs/WAL_FORMAT.md is the normative on-disk spec (machine-checked by
/// tools/trace_spec_check.py); docs/ARCHITECTURE.md describes the recovery
/// state machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rs/api/scaler_fleet.hpp"
#include "rs/common/status.hpp"
#include "rs/persist/persist.hpp"
#include "rs/trace/trace.hpp"

namespace rs::wal {

namespace internal {
class Prefaulter;
}  // namespace internal

/// When appended records are pushed to stable storage.
enum class FsyncPolicy : std::uint8_t {
  kEveryRecord,  ///< fsync after every append: zero-loss through power cut.
  kEveryN,       ///< fsync every `fsync_every_n` records.
  kNone,         ///< Never fsync on append: zero-loss through kill -9 only
                 ///< (the appended records sit in the OS page cache, via the
                 ///< shared mapping, which survives the process), not power
                 ///< loss. Rotation and checkpoint still sync.
};

const char* FsyncPolicyName(FsyncPolicy policy);

struct JournalPolicy {
  FsyncPolicy fsync = FsyncPolicy::kEveryRecord;
  std::uint64_t fsync_every_n = 64;  ///< FsyncPolicy::kEveryN knob.
  /// Rotate to a fresh segment once the active one exceeds this (a record
  /// never spans segments; tests shrink it to force rotation windows).
  /// Also the preallocation of the active segment's mapping.
  std::uint64_t segment_bytes = 4ull << 20;
};

/// What Open() found and repaired on disk.
struct OpenReport {
  std::size_t segments = 0;          ///< Segment files after the scan.
  std::uint64_t last_lsn = 0;        ///< Highest durable LSN (0: none).
  bool had_checkpoint = false;
  std::uint64_t checkpoint_lsn = 0;
  std::size_t tail_events = 0;       ///< Decoded events past the checkpoint.
  std::size_t truncated_bytes = 0;   ///< Torn tail dropped from the last
                                     ///< segment (crash mid-append); zero
                                     ///< padding is not counted.
  std::size_t dropped_segments = 0;  ///< Header-only/torn trailing segments
                                     ///< dropped (crash mid-rotation).
  std::size_t removed_tmp_files = 0; ///< Orphaned `*.tmp` swept.
};

/// Knobs for FleetJournal::Recover.
struct RecoverOptions {
  /// Worker-pool size of the recovered fleet.
  std::size_t worker_threads = 0;
  /// Decision-clock factory for restored snapshots taken under an injected
  /// clock (same contract as trace::ReplayOptions::decision_clock_for).
  std::function<sim::DecisionClock*(const std::string& tenant)>
      decision_clock_for;
};

struct RecoveryReport {
  bool had_checkpoint = false;
  std::uint64_t checkpoint_lsn = 0;
  std::size_t events_replayed = 0;  ///< Journal-tail events re-driven.
};

/// One segment file's verification summary (rs_snapshot --verify).
struct SegmentReport {
  std::uint32_t version = 0;         ///< Segment layout version (1 or 2).
  std::uint64_t first_lsn = 0;
  std::uint64_t last_lsn = 0;        ///< 0 when the segment holds no records.
  std::size_t records = 0;
  std::size_t bytes = 0;             ///< File size minus padding_bytes.
  std::size_t torn_tail_bytes = 0;   ///< Trailing torn record (legal: a
                                     ///< crash mid-append leaves one).
  std::size_t padding_bytes = 0;     ///< Zero preallocation after the torn
                                     ///< tail (a killed writer leaves it).
};

/// \brief Verifies one journal segment file of either layout version:
///        header magic/version, per-record CRC + length framing, LSN
///        contiguity, and that every payload decodes to one event. A torn
///        tail is reported, not an error (recovery truncates it);
///        corruption *before* the tail is an error.
Result<SegmentReport> InspectSegmentFile(const std::string& path);

/// Prints a WCKP checkpoint section field by field, then its embedded fleet
/// (the rs_snapshot inspector).
Status DescribeCheckpoint(persist::Printer* printer);

/// \brief Test-only crash-point hook: called at every named crash window
///        (wal.append.head, wal.append.done, wal.fsync.before, ...) so a
///        kill-point harness can _Exit mid-operation. Null disarms.
///        Not for production use; costs one branch per window when unset.
///
/// A record goes out in one memcpy, so no window falls inside a record;
/// a harness that wants a torn record cuts the file itself after a kill at
/// wal.append.done (copied, not yet counted), which leaves exactly what a
/// torn write does.
using CrashPointHook = void (*)(void* arg, const char* point);
void SetCrashPointHook(CrashPointHook hook, void* arg);

/// Fires the installed crash-point hook (no-op when unset). Exposed so
/// harnesses can interleave their own points (e.g. "serve.step") with the
/// journal's on one counter.
void CrashPoint(const char* point);

/// \brief The write-ahead journal for one fleet's serving events.
///
/// Lifecycle:
///   wal::FleetJournal journal;
///   RS_RETURN_NOT_OK(journal.Open(dir, policy));      // scan + repair
///   RS_ASSIGN_OR_RETURN(auto fleet, journal.Recover()); // checkpoint+tail
///   RS_RETURN_NOT_OK(journal.Attach(&fleet));         // resume journaling
///   ... serve ...
///   RS_RETURN_NOT_OK(journal.Checkpoint("label"));    // snapshot @ LSN
///   journal.Detach();
///
/// A fresh directory skips Recover (or calls it and gets an empty fleet).
/// Single caller thread, like the fleet itself; the journal must outlive
/// its attachment. Incompatible with the freshness loop (the tap hook
/// refuses the combination) — journaled fleets retrain synchronously.
///
/// The serving callbacks (OnRegister ... OnPlanAll), Detach, and the
/// tenant intern table come from trace::EventTap, shared with
/// trace::Recorder; the journal supplies Emit, which appends one record.
class FleetJournal final : public trace::EventTap {
 public:
  FleetJournal();
  ~FleetJournal() override;

  FleetJournal(const FleetJournal&) = delete;
  FleetJournal& operator=(const FleetJournal&) = delete;

  /// \brief Opens (creating if needed) the journal directory: sweeps
  ///        orphaned temp files, loads the checkpoint's LSN + tenant-id
  ///        intern table, walks every segment validating CRC/framing/LSN
  ///        contiguity, truncates a torn tail, decodes the event tail past
  ///        the checkpoint, and positions for appending.
  ///
  /// Corruption *before* the journal end (mid-file CRC mismatch, LSN gap,
  /// checkpoint LSN past the journal end) fails with a descriptive Status —
  /// those are never left by a crash, only by tampering or disk rot.
  Status Open(const std::string& dir, const JournalPolicy& policy = {});

  const OpenReport& open_report() const { return open_report_; }

  /// \brief Rebuilds the fleet this journal describes: restores the
  ///        checkpoint snapshot (an empty fleet when none exists) and
  ///        re-drives the journal tail through trace::Replay, verifying
  ///        every replayed action byte-identically against the journal.
  ///        A divergence means the journal does not describe this build's
  ///        deterministic serving — corruption — and fails.
  ///
  /// The replayable tail is frozen at Open() time, so Recover refuses (with
  /// a descriptive Status) once this journal has appended records — Open a
  /// fresh FleetJournal on the directory to recover the full stream.
  Result<api::ScalerFleet> Recover(const RecoverOptions& options = {},
                                   RecoveryReport* report = nullptr);

  /// \brief Attaches to `fleet` as its serving tap and journals a
  ///        kRegister (with full scaler snapshot) for every fleet tenant
  ///        not already in the journal's intern table — so attaching a
  ///        fresh fleet journals everything, and re-attaching the fleet
  ///        Recover() just rebuilt journals nothing twice.
  Status Attach(api::ScalerFleet* fleet);

  /// \brief Writes a checkpoint: fsyncs the journal, then durably writes
  ///        (temp + fsync + rename + dir fsync) a snapshot container tying
  ///        the attached fleet's full state and the journal's tenant-id
  ///        intern table to the current LSN, then always deletes the
  ///        segments it fully covers (the active segment is kept, so the
  ///        journal end never trails the checkpoint). Recovery needs only
  ///        the checkpoint + later records.
  Status Checkpoint(const std::string& user_meta = "");

  /// fsyncs the active segment now, regardless of policy.
  Status Sync();

  /// \brief Sticky journal health. OK until an append/fsync/rotate exhausts
  ///        its retries; then the journal fail-stops (drops later events,
  ///        keeps serving) and this returns the first error. The durable
  ///        prefix stays recoverable.
  const Status& status() const { return status_; }

  std::uint64_t last_lsn() const { return next_lsn_ - 1; }
  /// Active-segment fsyncs since Open (policy + rotation + checkpoint
  /// syncs; bench_wal reports it per fsync policy).
  std::uint64_t fsyncs() const { return fsyncs_; }
  std::uint64_t checkpoint_lsn() const { return checkpoint_lsn_; }
  /// Journal-tail events decoded by Open() (what Recover re-drives; they
  /// are still here after Recover returns, whether its replay passed).
  const std::vector<trace::Event>& tail() const { return tail_; }
  /// Offset in the active segment up to which the append helper has
  /// mapped pages writable ("Where the bytes live" above); the cursor's
  /// page start until it catches up, and always when it has retired.
  std::uint64_t populated_end() const;

 private:
  /// Encodes one event as a frame in frame_ and appends it; on exhausted
  /// retries flips status_ to broken. The journal's single write path, and
  /// allocation-free once the reused buffer is warm.
  void Emit(trace::Event&& event) override;
  /// Rotates if frame_ does not fit, appends it with retries, then applies
  /// the fsync policy; any exhausted step fail-stops the journal.
  void AppendFrame();
  /// Copies frame_ into the mapping at active_size_, first growing the
  /// file and mapping when one record outsizes the preallocation.
  Status AppendAttempt();
  /// Truncates the active segment to its data end, syncs it, and makes a
  /// fresh segment active.
  Status Rotate();
  /// Creates the segment starting at next_lsn_ (header and directory entry
  /// synced, file preallocated and mapped) and makes it active. `rotating`
  /// retries under the wal.rotate fault site and fires the
  /// wal.rotate.created crash window; Open's first segment makes one
  /// attempt and hits neither.
  Status CreateSegment(bool rotating);
  /// Unmaps the active segment, truncates it to its data end and closes it.
  void ReleaseActive();
  Status MaybeFsync();
  Status FsyncActive();
  Status LoadCheckpointMeta(const std::string& path);
  std::string SegmentPath(std::uint64_t first_lsn) const;

  std::string dir_;
  JournalPolicy policy_;
  bool opened_ = false;
  int fd_ = -1;                   ///< Active segment, O_RDWR.
  char* map_ = nullptr;           ///< Active segment's shared mapping.
  std::uint64_t map_bytes_ = 0;   ///< Mapped (and preallocated) length.
  std::string active_path_;
  std::uint64_t active_size_ = 0; ///< Active segment's data end.
  std::uint64_t active_records_ = 0;
  std::uint64_t next_lsn_ = 1;
  /// next_lsn_ as Open() left it; Recover refuses once appends outrun the
  /// tail it scanned (tail_ is frozen at Open time).
  std::uint64_t lsn_at_open_ = 1;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t records_since_fsync_ = 0;
  std::uint64_t bytes_since_fsync_ = 0;
  /// Emit's reused frame buffer: a bare run holding the frame header and
  /// the event encoded after it.
  persist::Writer frame_;
  Status status_ = Status::OK();
  OpenReport open_report_;
  std::uint64_t checkpoint_lsn_ = 0;
  std::vector<trace::Event> tail_;
  /// (first_lsn, path) per segment, ascending; back() is active.
  std::vector<std::pair<std::uint64_t, std::string>> segments_;
  /// Populates the active mapping ahead of active_size_ on its own thread.
  std::unique_ptr<internal::Prefaulter> prefault_;
};

/// \brief One-call journaling enablement (the EnableJournal of ISSUE 10,
///        homed in wal to keep the link graph downward): Open must have
///        succeeded; attaches `journal` to `fleet`.
inline Status EnableJournal(api::ScalerFleet* fleet, FleetJournal* journal) {
  if (journal == nullptr) {
    return Status::Invalid("EnableJournal: journal is null");
  }
  return journal->Attach(fleet);
}

}  // namespace rs::wal

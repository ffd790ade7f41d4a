/// \file journal.cpp
/// \brief FleetJournal write path: open/repair, append with CRC framing and
///        fsync policy, segment rotation, and checkpointing. The serving
///        callbacks that feed Emit live in trace::EventTap.
///        docs/WAL_FORMAT.md is the normative on-disk spec; recovery lives
///        in recover.cpp.
#include <fcntl.h>

#include <filesystem>
#include <system_error>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <memory>
#include <string_view>
#include <utility>

#include "rs/fault/fault.hpp"
#include "rs/persist/atomic_file.hpp"
#include "rs/persist/fields.hpp"
#include "rs/persist/persist.hpp"
#include "rs/wal/internal.hpp"
#include "rs/wal/prefault.hpp"
#include "rs/wal/wal.hpp"

namespace rs::wal {

namespace {

/// Append/fsync/rotate attempts before the journal fail-stops.
constexpr int kAttempts = 3;

/// A record that embeds a scaler snapshot (register, model swap) and is
/// larger than this does not leave its capacity behind in the reused frame
/// buffer. PlanAll records keep theirs whatever their size: every boundary
/// writes one about as large, so it is the fleet's steady state.
constexpr std::size_t kRetainedRecordBytes = 4 << 10;

CrashPointHook g_crash_hook = nullptr;
void* g_crash_hook_arg = nullptr;

using persist::Errno;

/// Preallocates `fd`'s file to at least `bytes` and maps its first `bytes`
/// shared, so appends are stores into the page cache. Space runs out here,
/// as a Status, never later as a SIGBUS on a store. Linux's
/// posix_fallocate writes zeros where the filesystem cannot allocate, so
/// the bytes past the data end always read as zero.
Status MapSegment(int fd, std::uint64_t bytes, const std::string& path,
                  char** map) {
  int rc;
  do {
    rc = ::posix_fallocate(fd, 0, static_cast<off_t>(bytes));
  } while (rc == EINTR);
  if (rc != 0) {
    return Status::IoError("preallocate " + std::to_string(bytes) +
                           " bytes for " + path + ": " + std::strerror(rc));
  }
  void* mapped =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (mapped == MAP_FAILED) return Errno("map " + path);
  *map = static_cast<char*>(mapped);
  return Status::OK();
}

/// Segment filenames are wal-<16 hex digits of first LSN>.rswal so a
/// lexicographic sort is an LSN sort.
bool ParseSegmentName(const std::string& name, std::uint64_t* first_lsn) {
  constexpr const char kPrefix[] = "wal-";
  constexpr const char kSuffix[] = ".rswal";
  if (name.size() != 4 + 16 + 6) return false;
  if (name.compare(0, 4, kPrefix) != 0) return false;
  if (name.compare(20, 6, kSuffix) != 0) return false;
  std::uint64_t value = 0;
  for (std::size_t i = 4; i < 20; ++i) {
    const char c = name[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *first_lsn = value;
  return true;
}

}  // namespace

void SetCrashPointHook(CrashPointHook hook, void* arg) {
  g_crash_hook = hook;
  g_crash_hook_arg = arg;
}

void CrashPoint(const char* point) {
  if (g_crash_hook != nullptr) g_crash_hook(g_crash_hook_arg, point);
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kEveryRecord:
      return "every-record";
    case FsyncPolicy::kEveryN:
      return "every-n";
    case FsyncPolicy::kNone:
      return "none";
  }
  return "unknown";
}

FleetJournal::FleetJournal()
    : prefault_(std::make_unique<internal::Prefaulter>()) {}

FleetJournal::~FleetJournal() { ReleaseActive(); }

std::uint64_t FleetJournal::populated_end() const {
  return prefault_->populated_end();
}

void FleetJournal::ReleaseActive() {
  prefault_->Release();
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
  map_ = nullptr;
  if (fd_ < 0) return;
  // Drops the preallocated padding so a closed segment holds exactly its
  // records. A failed cut leaves zero padding, which readers accept on the
  // last segment; rotation cuts (and fails on error) before this runs.
  (void)::ftruncate(fd_, static_cast<off_t>(active_size_));
  ::close(fd_);
  fd_ = -1;
}

std::string FleetJournal::SegmentPath(std::uint64_t first_lsn) const {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%016llx.rswal",
                static_cast<unsigned long long>(first_lsn));
  return dir_ + "/" + name;
}

Status FleetJournal::Open(const std::string& dir,
                          const JournalPolicy& policy) {
  if (opened_) {
    return Status::Invalid("FleetJournal::Open: already open (one journal "
                           "object drives one directory)");
  }
  dir_ = dir;
  policy_ = policy;
  {
    // create_directories: journal dirs are often nested under a state root
    // that may not exist yet (bench/crashtest scratch trees).
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      return Status::IoError(
          "FleetJournal::Open: cannot create journal directory " + dir_ +
          ": " + ec.message());
    }
  }
  open_report_ = OpenReport{};
  // A crash between checkpoint temp-write and rename strands a `.tmp`; the
  // committed checkpoint (if any) is intact, so the orphan is pure litter.
  open_report_.removed_tmp_files = persist::RemoveStaleTempFiles(dir_);

  const std::string checkpoint_path = dir_ + "/checkpoint.rsnp";
  if (std::ifstream(checkpoint_path, std::ios::binary).good()) {
    RS_RETURN_NOT_OK(LoadCheckpointMeta(checkpoint_path));
    open_report_.had_checkpoint = true;
    open_report_.checkpoint_lsn = checkpoint_lsn_;
  }

  std::vector<std::string> names;
  {
    DIR* d = ::opendir(dir_.c_str());
    if (d == nullptr) {
      return Errno("FleetJournal::Open: cannot list " + dir_);
    }
    while (const dirent* entry = ::readdir(d)) {
      std::uint64_t ignored = 0;
      if (ParseSegmentName(entry->d_name, &ignored)) {
        names.emplace_back(entry->d_name);
      }
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
  }

  // A crash mid-rotation can leave a trailing segment with a missing or
  // partial header (no records can exist past a torn header). Drop those
  // from the back; a bad header *before* the journal's end is corruption
  // and fails below.
  while (!names.empty()) {
    const std::string path = dir_ + "/" + names.back();
    std::string bytes;
    RS_RETURN_NOT_OK(internal::ReadFileBytes(path, &bytes));
    if (bytes.size() >= internal::kSegmentHeaderBytes &&
        persist::LoadLe(bytes.data(), 4) == internal::kSegmentMagic) {
      break;
    }
    std::remove(path.c_str());
    ++open_report_.dropped_segments;
    names.pop_back();
  }

  segments_.clear();
  tail_.clear();
  std::uint64_t expected = 0;
  std::uint32_t last_version = internal::kSegmentLayoutVersion;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string path = dir_ + "/" + names[i];
    std::string bytes;
    RS_RETURN_NOT_OK(internal::ReadFileBytes(path, &bytes));
    const bool last = i + 1 == names.size();
    const auto on_record = [this](std::uint64_t lsn, std::uint32_t version,
                                  std::string_view payload) -> Status {
      if (lsn <= checkpoint_lsn_) return Status::OK();  // snapshot covers it
      trace::Event event;
      RS_RETURN_NOT_OK(internal::DecodePayload(version, payload, &event));
      // The journal tail extends the checkpoint's intern table through the
      // same rule the live callbacks built it with.
      Intern(event);
      tail_.push_back(std::move(event));
      return Status::OK();
    };
    auto scan = internal::ScanSegmentBytes(bytes, /*allow_torn_tail=*/last,
                                           expected, on_record);
    if (!scan.ok()) {
      return Status(scan.status().code(),
                    "journal segment " + names[i] + ": " +
                        scan.status().message());
    }
    std::uint64_t file_lsn = 0;
    ParseSegmentName(names[i], &file_lsn);
    if (file_lsn != scan->first_lsn) {
      return Status::Invalid("journal segment " + names[i] +
                             " is named for LSN " + std::to_string(file_lsn) +
                             " but its header claims LSN " +
                             std::to_string(scan->first_lsn) +
                             "; the file was renamed or spliced");
    }
    if (i == 0) {
      const bool gap = open_report_.had_checkpoint
                           ? scan->first_lsn > checkpoint_lsn_ + 1
                           : scan->first_lsn != 1;
      if (gap) {
        return Status::Invalid(
            "journal begins at LSN " + std::to_string(scan->first_lsn) +
            " but nothing covers LSN " +
            std::to_string(checkpoint_lsn_ + 1) +
            " onward (retired segments were removed without a covering "
            "checkpoint, or the checkpoint was rolled back)");
      }
    }
    segments_.emplace_back(scan->first_lsn, path);
    expected = scan->records > 0 ? scan->last_lsn + 1 : scan->first_lsn;
    if (last) {
      active_size_ = scan->valid_bytes;
      active_records_ = scan->records;
      last_version = scan->version;
      open_report_.truncated_bytes = scan->torn_bytes;
    }
  }

  next_lsn_ = segments_.empty() ? checkpoint_lsn_ + 1 : expected;
  if (last_lsn() < checkpoint_lsn_) {
    return Status::Invalid(
        "journal ends at LSN " + std::to_string(last_lsn()) +
        " but the checkpoint claims LSN " + std::to_string(checkpoint_lsn_) +
        ": stale snapshot with a lost journal suffix — the journal was "
        "truncated below its own checkpoint, which no crash can do");
  }

  if (segments_.empty()) {
    RS_RETURN_NOT_OK(CreateSegment(/*rotating=*/false));
  } else {
    active_path_ = segments_.back().second;
    fd_ = ::open(active_path_.c_str(), O_RDWR | O_CLOEXEC);
    if (fd_ < 0) {
      return Errno("FleetJournal::Open: cannot open active segment " +
                   active_path_);
    }
    // A torn tail from a crash mid-append is cut back to the last intact
    // record, durably. Zero padding alone needs no repair: appends go over
    // it. A segment in an older layout is closed for good: cut to its data
    // end, padding included, since it is about to stop being the last.
    const bool older = last_version != internal::kSegmentLayoutVersion;
    if ((open_report_.truncated_bytes > 0 || older) &&
        (::ftruncate(fd_, static_cast<off_t>(active_size_)) != 0 ||
         ::fsync(fd_) != 0)) {
      return Errno("FleetJournal::Open: cannot cut " + active_path_ +
                   " to its last intact record");
    }
    if (older) {
      // Appends continue in a fresh segment of the current layout. An empty
      // older segment carries the new one's name, so it is replaced.
      ::close(fd_);
      fd_ = -1;
      if (active_records_ == 0) segments_.pop_back();
      RS_RETURN_NOT_OK(CreateSegment(/*rotating=*/false));
    } else {
      map_bytes_ = std::max<std::uint64_t>(policy_.segment_bytes, active_size_);
      RS_RETURN_NOT_OK(MapSegment(fd_, map_bytes_, active_path_, &map_));
      prefault_->Follow(map_, map_bytes_, active_size_);
    }
  }

  records_since_fsync_ = 0;
  bytes_since_fsync_ = 0;
  lsn_at_open_ = next_lsn_;
  status_ = Status::OK();
  opened_ = true;
  open_report_.segments = segments_.size();
  open_report_.last_lsn = last_lsn();
  open_report_.tail_events = tail_.size();
  return Status::OK();
}

Status FleetJournal::AppendAttempt() {
  // Direct Hit() rather than RS_FAULT_POINT: the injected error must feed
  // the retry loop like a real failed append.
  RS_RETURN_NOT_OK(fault::Hit("wal.append"));
  CrashPoint("wal.append.head");
  const std::string_view frame = frame_.bytes();
  const std::uint64_t end = active_size_ + frame.size();
  if (end > map_bytes_) {
    // Only a record larger than the segment's preallocation gets here.
    char* grown = nullptr;
    RS_RETURN_NOT_OK(MapSegment(fd_, end, active_path_, &grown));
    prefault_->Release();
    ::munmap(map_, map_bytes_);
    map_ = grown;
    map_bytes_ = end;
    prefault_->Follow(map_, map_bytes_, active_size_);
  }
  // The store lands in the page cache, as a write() would: it survives the
  // process, and fsync(fd_) writes it back. A crash mid-copy leaves part of
  // the frame before zeros, which Open cuts back as a torn tail.
  std::memcpy(map_ + active_size_, frame.data(), frame.size());
  CrashPoint("wal.append.done");
  return Status::OK();
}

Status FleetJournal::FsyncActive() {
  Status last;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    last = fault::Hit("wal.fsync");
    if (!last.ok()) continue;  // Injected: no bytes were touched, retryable.
    CrashPoint("wal.fsync.before");
    if (::fsync(fd_) != 0) {
      // A failed fsync may mark the dirty pages clean without writing them
      // (Linux "fsyncgate"), so retrying on the same fd can return 0 while
      // the records never reached disk — falsely advancing the durability
      // point. A real fsync failure is therefore immediately fatal; every
      // caller turns it into the sticky fail-stop status_.
      return Errno("fsync " + active_path_ +
                   " (unretryable: a failed fsync may drop dirty pages)");
    }
    CrashPoint("wal.fsync.after");
    ++fsyncs_;
    // Writeback write-protected the pages populated ahead: populate again.
    prefault_->Rearm(active_size_, bytes_since_fsync_);
    records_since_fsync_ = 0;
    bytes_since_fsync_ = 0;
    return Status::OK();
  }
  return last;
}

Status FleetJournal::MaybeFsync() {
  switch (policy_.fsync) {
    case FsyncPolicy::kEveryRecord:
      return FsyncActive();
    case FsyncPolicy::kEveryN:
      return records_since_fsync_ >= policy_.fsync_every_n ? FsyncActive()
                                                           : Status::OK();
    case FsyncPolicy::kNone:
      return Status::OK();
  }
  return Status::OK();
}

Status FleetJournal::CreateSegment(bool rotating) {
  const std::string path = SegmentPath(next_lsn_);
  const std::string header = internal::BuildSegmentHeader(next_lsn_);
  const std::uint64_t map_bytes = std::max<std::uint64_t>(
      policy_.segment_bytes, internal::kSegmentHeaderBytes);
  Status last;
  int fd = -1;
  char* map = nullptr;
  for (int attempt = 0; attempt < (rotating ? kAttempts : 1); ++attempt) {
    if (rotating) {
      last = fault::Hit("wal.rotate");
      if (!last.ok()) continue;
    }
    // Truncates a partial file a previous crashed attempt may have left.
    last = persist::WriteFileSynced(path, header);
    if (!last.ok()) continue;
    fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd < 0) {
      last = Errno("FleetJournal: cannot open segment " + path);
      continue;
    }
    last = MapSegment(fd, map_bytes, path, &map);
    if (last.ok()) break;
    ::close(fd);
    fd = -1;
  }
  RS_RETURN_NOT_OK(last);
  if (rotating) CrashPoint("wal.rotate.created");
  const Status synced = persist::FsyncParentDir(path);
  if (!synced.ok()) {
    ::munmap(map, map_bytes);
    ::close(fd);
    return synced;
  }
  ReleaseActive();
  fd_ = fd;
  map_ = map;
  map_bytes_ = map_bytes;
  active_path_ = path;
  active_size_ = internal::kSegmentHeaderBytes;
  active_records_ = 0;
  segments_.emplace_back(next_lsn_, path);
  prefault_->Follow(map_, map_bytes_, active_size_);
  return Status::OK();
}

Status FleetJournal::Rotate() {
  CrashPoint("wal.rotate.begin");
  // The helper lets go of the outgoing mapping before its file shrinks.
  prefault_->Release();
  // The outgoing segment is cut to its data end and then made fully
  // durable before the journal moves on, so retired segments carry no
  // padding. Rotation is rare, so this syncs under every policy.
  if (::ftruncate(fd_, static_cast<off_t>(active_size_)) != 0) {
    return Errno("truncate " + active_path_ + " to its data end");
  }
  RS_RETURN_NOT_OK(FsyncActive());
  RS_RETURN_NOT_OK(CreateSegment(/*rotating=*/true));
  CrashPoint("wal.rotate.done");
  return Status::OK();
}

void FleetJournal::Emit(trace::Event&& event) {
  if (!opened_ || !status_.ok()) return;
  // The payload is the bare trace event, encoded straight after the frame
  // header in the buffer the previous record used; one CRC pass seals it.
  internal::BeginFrame(next_lsn_, &frame_);
  trace::EncodeEvent(&frame_, event);
  internal::SealFrame(&frame_);
  AppendFrame();
  const bool embeds_snapshot = event.kind == trace::EventKind::kRegister ||
                               event.kind == trace::EventKind::kReplaceModel;
  if (embeds_snapshot && frame_.size() > kRetainedRecordBytes) {
    // Swap, not assign: clearing a buffer keeps its capacity.
    persist::Writer().swap(frame_);
  }
}

void FleetJournal::AppendFrame() {
  if (active_records_ > 0 &&
      active_size_ + frame_.size() > policy_.segment_bytes) {
    const Status rotated = Rotate();
    if (!rotated.ok()) {
      status_ = Status(rotated.code(),
                       "journal fail-stop at LSN " +
                           std::to_string(next_lsn_) +
                           " (rotation): " + rotated.message());
      return;
    }
  }
  Status appended;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    appended = AppendAttempt();
    if (appended.ok()) break;
  }
  if (!appended.ok()) {
    status_ = Status(appended.code(),
                     "journal fail-stop at LSN " + std::to_string(next_lsn_) +
                         " (append): " + appended.message());
    return;
  }
  active_size_ += frame_.size();
  ++active_records_;
  ++next_lsn_;
  ++records_since_fsync_;
  bytes_since_fsync_ += frame_.size();
  const Status synced = MaybeFsync();
  if (!synced.ok()) {
    status_ = Status(synced.code(), "journal fail-stop at LSN " +
                                        std::to_string(last_lsn()) +
                                        " (fsync): " + synced.message());
    return;
  }
  prefault_->Advance(active_size_, bytes_since_fsync_);
}

Status FleetJournal::Sync() {
  if (!opened_) {
    return Status::Invalid("FleetJournal::Sync: journal is not open");
  }
  RS_RETURN_NOT_OK(status_);
  const Status synced = FsyncActive();
  if (!synced.ok()) {
    status_ = Status(synced.code(),
                     "journal fail-stop (sync): " + synced.message());
  }
  return synced;
}

Status FleetJournal::Attach(api::ScalerFleet* fleet) {
  if (!opened_) {
    return Status::Invalid("FleetJournal::Attach: Open the journal first");
  }
  return AttachAndSnapshot(fleet, "FleetJournal::Attach");
}

Status FleetJournal::Checkpoint(const std::string& user_meta) {
  if (!opened_) {
    return Status::Invalid("FleetJournal::Checkpoint: journal is not open");
  }
  if (fleet_ == nullptr) {
    return Status::Invalid(
        "FleetJournal::Checkpoint: no fleet attached (the checkpoint embeds "
        "the attached fleet's state)");
  }
  RS_RETURN_NOT_OK(status_);
  // WAL rule: the checkpoint LSN must never lead the durable journal, so
  // the journal is synced first under every fsync policy.
  RS_RETURN_NOT_OK(Sync());
  CrashPoint("wal.checkpoint.begin");
  const std::uint64_t lsn = last_lsn();

  internal::CheckpointMeta meta;
  meta.lsn = lsn;
  meta.next_id = next_id_;
  for (const auto& [id, name] : names_) {
    const auto live = ids_.find(name);
    meta.tenants.push_back(
        {id, name, live != ids_.end() && live->second == id});
  }
  std::sort(meta.tenants.begin(), meta.tenants.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  meta.user_meta = user_meta;
  persist::Writer writer;
  writer.BeginSection(persist::kTagWalCheckpoint);
  persist::Encoder io(&writer);
  internal::CheckpointFields(io, meta);
  RS_RETURN_NOT_OK(fleet_->SaveFleetSection(&writer));
  writer.EndSection();
  const std::string_view encoded = writer.Finish();

  // Durable temp-write + rename by hand (not AtomicWriteFile) so the crash
  // windows between the steps are injectable; same persist.* fault sites.
  const std::string path = dir_ + "/checkpoint.rsnp";
  const std::string tmp = path + ".tmp";
  RS_RETURN_NOT_OK(fault::Hit("persist.write"));
  RS_RETURN_NOT_OK(persist::WriteFileSynced(tmp, encoded));
  CrashPoint("wal.checkpoint.tmp");
  RS_RETURN_NOT_OK(fault::Hit("persist.rename"));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("FleetJournal::Checkpoint: rename " + tmp + " -> " + path);
  }
  CrashPoint("wal.checkpoint.renamed");
  RS_RETURN_NOT_OK(persist::FsyncParentDir(path));
  CrashPoint("wal.checkpoint.done");
  checkpoint_lsn_ = lsn;

  // Retire segments fully covered by the checkpoint. The active segment is
  // always kept, which preserves the journal-end >= checkpoint invariant.
  bool removed = false;
  while (segments_.size() >= 2 && segments_[1].first <= checkpoint_lsn_ + 1) {
    std::remove(segments_.front().second.c_str());
    segments_.erase(segments_.begin());
    removed = true;
  }
  return removed ? persist::FsyncParentDir(path) : Status::OK();
}

}  // namespace rs::wal

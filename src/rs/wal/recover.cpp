/// \file recover.cpp
/// \brief Crash-consistent recovery: checkpoint decoding, journal-tail
///        replay into a restored fleet, and segment verification for
///        rs_snapshot --verify. docs/WAL_FORMAT.md is the normative spec;
///        docs/ARCHITECTURE.md describes the recovery state machine.
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "rs/persist/persist.hpp"
#include "rs/wal/internal.hpp"
#include "rs/wal/wal.hpp"

namespace rs::wal {

namespace {

/// The checkpoint's WCKP fields up to (not including) the embedded FLET
/// fleet section; parsing stops positioned at FLET with WCKP still open.
struct CheckpointMeta {
  std::uint32_t version = 0;
  std::uint64_t lsn = 0;
  std::uint64_t next_id = 1;
  /// (id, tenant name, live at checkpoint time), ascending by id.
  std::vector<std::tuple<std::uint32_t, std::string, bool>> entries;
  std::string user_meta;
};

Status ParseCheckpointMeta(persist::Reader* reader, CheckpointMeta* out) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagWalCheckpoint));
  RS_RETURN_NOT_OK(reader->ReadLayerVersion(
      "checkpoint layout", internal::kCheckpointLayoutVersion, &out->version));
  RS_ASSIGN_OR_RETURN(out->lsn, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(out->next_id, reader->ReadU64());
  // Tenant ids are u32 on the wire (docs/TRACE_FORMAT.md).
  if (out->next_id == 0 || out->next_id > UINT32_MAX) {
    return Status::Invalid("next tenant id " + std::to_string(out->next_id) +
                           " is outside the 32-bit id range [1, 2^32)");
  }
  RS_ASSIGN_OR_RETURN(const std::uint64_t count, reader->ReadU64());
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t id = 0;
    std::string name;
    bool live = false;
    RS_ASSIGN_OR_RETURN(id, reader->ReadU32());
    RS_ASSIGN_OR_RETURN(name, reader->ReadString());
    RS_ASSIGN_OR_RETURN(live, reader->ReadBool());
    if (id == 0 || id >= out->next_id) {
      return Status::Invalid("intern table entry " + std::to_string(i) +
                             " carries id " + std::to_string(id) +
                             ", outside the issued range [1, " +
                             std::to_string(out->next_id) + ")");
    }
    if (name.empty()) {
      return Status::Invalid("intern table entry " + std::to_string(i) +
                             " has an empty tenant name");
    }
    out->entries.emplace_back(id, std::move(name), live);
  }
  RS_ASSIGN_OR_RETURN(out->user_meta, reader->ReadString());
  return Status::OK();
}

}  // namespace

Status FleetJournal::LoadCheckpointMeta(const std::string& path) {
  std::string bytes;
  RS_RETURN_NOT_OK(internal::ReadFileBytes(path, &bytes));
  const auto parse = [&]() -> Status {
    RS_ASSIGN_OR_RETURN(persist::Reader reader,
                        persist::Reader::FromBytes(std::move(bytes)));
    CheckpointMeta meta;
    RS_RETURN_NOT_OK(ParseCheckpointMeta(&reader, &meta));
    checkpoint_lsn_ = meta.lsn;
    next_id_ = static_cast<std::uint32_t>(meta.next_id);
    for (auto& [id, name, live] : meta.entries) {
      names_[id] = name;
      if (live) ids_[std::move(name)] = id;
    }
    // The embedded FLET fleet section follows; Open() needs only the
    // metadata, so ExitSection skips it (Recover() re-reads the file).
    return reader.ExitSection();
  };
  const Status parsed = parse();
  if (!parsed.ok()) {
    return Status(parsed.code(), "journal checkpoint " + path + ": " +
                                     parsed.message());
  }
  return Status::OK();
}

Result<api::ScalerFleet> FleetJournal::Recover(const RecoverOptions& options,
                                               RecoveryReport* report) {
  if (!opened_) {
    return Status::Invalid("FleetJournal::Recover: Open the journal first");
  }
  if (fleet_ != nullptr) {
    return Status::Invalid(
        "FleetJournal::Recover: a live fleet is attached; Recover rebuilds "
        "from disk and would race it — Detach first");
  }
  if (next_lsn_ != lsn_at_open_) {
    // The replayable tail is frozen at Open() time; recovering after
    // appends would silently drop every event journaled since. The durable
    // stream is intact on disk — a fresh journal object sees all of it.
    return Status::Invalid(
        "FleetJournal::Recover: " + std::to_string(next_lsn_ - lsn_at_open_) +
        " record(s) were appended since Open, and Recover replays only the "
        "tail scanned at Open time — Open a fresh FleetJournal on this "
        "directory to recover the full stream");
  }
  RecoveryReport local;
  local.had_checkpoint = open_report_.had_checkpoint;
  local.checkpoint_lsn = checkpoint_lsn_;

  std::optional<api::ScalerFleet> fleet;
  if (open_report_.had_checkpoint) {
    const std::string path = dir_ + "/checkpoint.rsnp";
    std::string bytes;
    RS_RETURN_NOT_OK(internal::ReadFileBytes(path, &bytes));
    RS_ASSIGN_OR_RETURN(persist::Reader reader,
                        persist::Reader::FromBytes(std::move(bytes)));
    CheckpointMeta meta;
    {
      const Status parsed = ParseCheckpointMeta(&reader, &meta);
      if (!parsed.ok()) {
        return Status(parsed.code(), "journal checkpoint " + path + ": " +
                                         parsed.message());
      }
    }
    api::FleetRestoreOptions restore;
    restore.worker_threads = options.worker_threads;
    restore.decision_clock_for = options.decision_clock_for;
    RS_ASSIGN_OR_RETURN(fleet,
                        api::ScalerFleet::LoadFleetSection(&reader, restore));
    RS_RETURN_NOT_OK(reader.ExitSection());
  } else {
    fleet.emplace(options.worker_threads);
  }

  if (!tail_.empty()) {
    // The journal tail *is* a trace capture over the checkpoint's fleet —
    // same event grammar — so recovery re-drives it through the replay
    // engine and inherits its byte-identical verification for free.
    trace::Capture capture;
    capture.producer = "robustscaler rs::wal";
    capture.label = "journal tail past LSN " + std::to_string(checkpoint_lsn_);
    capture.events = tail_;
    trace::ReplayOptions replay;
    replay.into = &*fleet;
    replay.tenant_names = names_;
    replay.decision_clock_for = options.decision_clock_for;
    RS_ASSIGN_OR_RETURN(trace::ReplayReport replayed,
                        trace::Replay(capture, replay));
    if (replayed.diverged) {
      return Status::Invalid(
          "journal tail does not replay byte-identically at tail event " +
          std::to_string(replayed.divergence_event) + " of " +
          std::to_string(replayed.events_total) + ": " + replayed.detail +
          " — the journal does not describe this build's deterministic "
          "serving, so the checkpoint or a record is corrupt");
    }
    local.events_replayed = replayed.events_applied;
  }

  if (report != nullptr) *report = local;
  return std::move(*fleet);
}

Result<SegmentReport> InspectSegmentFile(const std::string& path) {
  std::string bytes;
  RS_RETURN_NOT_OK(internal::ReadFileBytes(path, &bytes));
  const auto on_record = [](std::uint64_t lsn, std::uint32_t version,
                            std::string_view payload) -> Status {
    trace::Event event;
    const Status decoded = internal::DecodePayload(version, payload, &event);
    if (decoded.ok()) return decoded;
    return Status(decoded.code(), "record LSN " + std::to_string(lsn) + ": " +
                                      decoded.message());
  };
  // A torn tail and zero padding are legal here (a crash mid-append leaves
  // them; recovery truncates the tail) — only pre-tail corruption fails.
  auto scan =
      internal::ScanSegmentBytes(bytes, /*allow_torn_tail=*/true,
                                 /*expected_first_lsn=*/0, on_record);
  if (!scan.ok()) {
    return Status(scan.status().code(), "journal segment " + path + ": " +
                                            scan.status().message());
  }
  SegmentReport result;
  result.version = scan->version;
  result.first_lsn = scan->first_lsn;
  result.last_lsn = scan->last_lsn;
  result.records = scan->records;
  result.bytes = bytes.size() - scan->padding_bytes;
  result.torn_tail_bytes = scan->torn_bytes;
  result.padding_bytes = scan->padding_bytes;
  return result;
}

}  // namespace rs::wal

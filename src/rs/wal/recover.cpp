/// \file recover.cpp
/// \brief Crash-consistent recovery: checkpoint decoding, journal-tail
///        replay into a restored fleet, and segment verification for
///        rs_snapshot --verify. docs/WAL_FORMAT.md is the normative spec;
///        docs/ARCHITECTURE.md describes the recovery state machine.
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rs/persist/fields.hpp"
#include "rs/persist/persist.hpp"
#include "rs/wal/internal.hpp"
#include "rs/wal/wal.hpp"

namespace rs::wal {

namespace {

/// Opens the WCKP section and decodes its metadata, leaving the reader at
/// the embedded FLET fleet section with WCKP still open.
Status ParseCheckpointMeta(persist::Reader* reader,
                           internal::CheckpointMeta* meta) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagWalCheckpoint));
  persist::Decoder io(reader);
  RS_RETURN_NOT_OK(internal::CheckpointFields(io, *meta));
  // Tenant ids are u32 on the wire (docs/TRACE_FORMAT.md).
  if (meta->next_id == 0 || meta->next_id > UINT32_MAX) {
    return Status::Invalid("next tenant id " + std::to_string(meta->next_id) +
                           " is outside the 32-bit id range [1, 2^32)");
  }
  for (std::size_t i = 0; i < meta->tenants.size(); ++i) {
    const internal::CheckpointTenant& tenant = meta->tenants[i];
    if (tenant.id == 0 || tenant.id >= meta->next_id) {
      return Status::Invalid("intern table entry " + std::to_string(i) +
                             " carries id " + std::to_string(tenant.id) +
                             ", outside the issued range [1, " +
                             std::to_string(meta->next_id) + ")");
    }
    if (tenant.name.empty()) {
      return Status::Invalid("intern table entry " + std::to_string(i) +
                             " has an empty tenant name");
    }
  }
  return Status::OK();
}

}  // namespace

Status FleetJournal::LoadCheckpointMeta(const std::string& path) {
  std::string bytes;
  RS_RETURN_NOT_OK(internal::ReadFileBytes(path, &bytes));
  const auto parse = [&]() -> Status {
    RS_ASSIGN_OR_RETURN(persist::Reader reader,
                        persist::Reader::FromBytes(std::move(bytes)));
    internal::CheckpointMeta meta;
    RS_RETURN_NOT_OK(ParseCheckpointMeta(&reader, &meta));
    checkpoint_lsn_ = meta.lsn;
    next_id_ = static_cast<std::uint32_t>(meta.next_id);
    for (auto& tenant : meta.tenants) {
      names_[tenant.id] = tenant.name;
      if (tenant.live) ids_[std::move(tenant.name)] = tenant.id;
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
    internal::CheckpointMeta meta;
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
    // engine and inherits its byte-identical verification for free. The
    // held events are lent to the capture, not copied: they swap back when
    // this block ends, on every path out of it, so tail() keeps them.
    trace::Capture capture;
    capture.producer = "robustscaler rs::wal";
    capture.label = "journal tail past LSN " + std::to_string(checkpoint_lsn_);
    struct Lend {
      std::vector<trace::Event>* tail;
      trace::Capture* capture;
      ~Lend() { tail->swap(capture->events); }
    } lend{&tail_, &capture};
    tail_.swap(capture.events);
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

Status DescribeCheckpoint(persist::Printer* printer) {
  internal::CheckpointMeta meta;
  printer->Section("journal checkpoint", persist::kTagWalCheckpoint, [&] {
    internal::CheckpointFields(*printer, meta);
    printer->Latch(api::ScalerFleet::DescribeFleetSection(printer));
  });
  return printer->status();
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

/// \file internal.hpp
/// \brief rs::wal on-disk constants + the segment scanner and payload
///        decoder shared by the journal's Open() repair pass and
///        InspectSegmentFile verification.
///        docs/WAL_FORMAT.md is the normative spec for everything here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "rs/common/status.hpp"
#include "rs/persist/persist.hpp"

namespace rs::trace {
struct Event;
}  // namespace rs::trace

namespace rs::wal::internal {

/// Segment header magic: "RSWJ", little-endian FourCC.
inline constexpr std::uint32_t kSegmentMagic =
    static_cast<std::uint32_t>('R') | (static_cast<std::uint32_t>('S') << 8) |
    (static_cast<std::uint32_t>('W') << 16) |
    (static_cast<std::uint32_t>('J') << 24);

/// Segment layout version the writer uses. Version 2 frames the bare
/// trace event; version 1 (still read) framed a complete rs::persist
/// container holding it. Readers reject newer versions with a descriptive
/// Status.
inline constexpr std::uint32_t kSegmentLayoutVersion = 2;

/// WCKP checkpoint layout version, independent of the segment layout.
inline constexpr std::uint32_t kCheckpointLayoutVersion = 1;

/// Segment header: magic u32 + version u32 + first_lsn u64.
inline constexpr std::size_t kSegmentHeaderBytes = 16;

/// Record frame header: lsn u64 + payload_len u32 + crc32 u32. The CRC
/// covers the 12 bytes of (lsn, payload_len) followed by the payload.
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Smallest payload of a segment layout: a bare retire event (kind u8 +
/// id u32) in version 2; in version 1, an empty rs::persist container
/// (8-byte header + CRC).
constexpr std::size_t MinPayloadBytes(std::uint32_t layout_version) {
  return layout_version == 1 ? 12 : 5;
}

/// Starts a record frame in `frame` (a bare run, capacity kept): the
/// 16-byte frame header with `lsn`, its length and CRC left for SealFrame.
/// The caller then encodes the payload into `frame`.
void BeginFrame(std::uint64_t lsn, persist::Writer* frame);

/// Fills in the length and CRC of the frame BeginFrame started, over
/// everything encoded after its header: [lsn u64][len u32][crc u32][payload].
void SealFrame(persist::Writer* frame);

/// Renders the 16-byte segment header for a segment starting at `first_lsn`.
std::string BuildSegmentHeader(std::uint64_t first_lsn);

/// One segment's scan summary.
struct SegmentScan {
  std::uint32_t version = 0;    ///< Layout version, from the header.
  std::uint64_t first_lsn = 0;  ///< From the header.
  std::size_t records = 0;
  std::uint64_t last_lsn = 0;   ///< 0 when the segment holds no records.
  std::size_t valid_bytes = 0;  ///< Offset where intact data ends.
  std::size_t torn_bytes = 0;   ///< From valid_bytes through the last
                                ///< non-zero byte (torn tail).
  std::size_t padding_bytes = 0;  ///< The all-zero run after the torn tail
                                  ///< (preallocation a killed writer left).
};

/// \brief Walks one segment's bytes: validates the header, then every
///        record's LSN contiguity, length framing, and CRC, invoking
///        `on_record` per intact record.
///
/// The first invalid record is the end of the log (the standard WAL rule: a
/// torn tail is only ever the *final* write, so nothing after the first
/// break is trustworthy). With `allow_torn_tail` the bytes from the break
/// on are reported as torn_bytes up to the last non-zero byte and as
/// padding_bytes after it; without it (a segment that is not the journal's
/// last) any break, padding included, is a hard error.
/// `expected_first_lsn` 0 accepts any header LSN. `on_record` receives the
/// segment's layout version with each payload, a view into `bytes`. An
/// `on_record` error aborts the scan as corruption, never a torn tail.
Result<SegmentScan> ScanSegmentBytes(
    std::string_view bytes, bool allow_torn_tail,
    std::uint64_t expected_first_lsn,
    const std::function<Status(std::uint64_t lsn, std::uint32_t version,
                               std::string_view payload)>& on_record);

/// Decodes one record payload of segment layout `version` into `event`:
/// the bare trace event, read in place (version 2), or an rs::persist
/// container holding it (version 1). Trailing bytes after the event are an
/// error.
Status DecodePayload(std::uint32_t version, std::string_view payload,
                     trace::Event* event);

/// Reads a whole file into `out` (binary). IoError when unopenable.
Status ReadFileBytes(const std::string& path, std::string* out);

/// One tenant-id intern table entry of a checkpoint.
struct CheckpointTenant {
  std::uint32_t id = 0;
  std::string name;
  bool live = false;  ///< Registered at checkpoint time.
};

/// The checkpoint's WCKP fields ahead of the embedded FLET fleet section.
struct CheckpointMeta {
  std::uint64_t lsn = 0;
  std::uint64_t next_id = 1;
  /// Ascending by id: a deterministic encoding, and recovery learns dead
  /// ids without replaying pre-checkpoint events.
  std::vector<CheckpointTenant> tenants;
  std::string user_meta;
};

/// The WCKP record's metadata (the FLET section follows it).
template <class Io, class Rec>
Status CheckpointFields(Io& io, Rec& meta) {
  io.Version("checkpoint layout", kCheckpointLayoutVersion);
  io("lsn", meta.lsn);
  io("next_id", meta.next_id);
  io.Each("tenants", meta.tenants, [](auto& field, auto& tenant) {
    field("id", tenant.id);
    field("name", tenant.name);
    field("live", tenant.live);
  });
  io("user_meta", meta.user_meta);
  return io.status();
}

}  // namespace rs::wal::internal

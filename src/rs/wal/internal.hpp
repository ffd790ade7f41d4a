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

#include "rs/common/status.hpp"

namespace rs::trace {
struct Event;
}  // namespace rs::trace

namespace rs::wal::internal {

/// Segment header magic: "RSWJ", little-endian FourCC.
inline constexpr std::uint32_t kSegmentMagic =
    static_cast<std::uint32_t>('R') | (static_cast<std::uint32_t>('S') << 8) |
    (static_cast<std::uint32_t>('W') << 16) |
    (static_cast<std::uint32_t>('J') << 24);

/// Journal layout version. Bump for incompatible header/frame changes;
/// readers reject newer versions with a descriptive Status.
inline constexpr std::uint32_t kWalLayerVersion = 1;

/// Segment header: magic u32 + version u32 + first_lsn u64.
inline constexpr std::size_t kSegmentHeaderBytes = 16;

/// Record frame header: lsn u64 + payload_len u32 + crc32 u32. The CRC
/// covers the 12 bytes of (lsn, payload_len) followed by the payload.
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Smallest payload: an empty rs::persist container (8-byte header + CRC).
inline constexpr std::size_t kMinPayloadBytes = 12;

std::uint32_t ReadU32Le(const char* p);
std::uint64_t ReadU64Le(const char* p);
void AppendU32Le(std::string* out, std::uint32_t value);
void AppendU64Le(std::string* out, std::uint64_t value);

/// Frames one record into `frame` (cleared first, capacity kept):
/// [lsn u64][len u32][crc u32][payload].
void BuildFrame(std::uint64_t lsn, std::string_view payload,
                std::string* frame);

/// Renders the 16-byte segment header for a segment starting at `first_lsn`.
std::string BuildSegmentHeader(std::uint64_t first_lsn);

/// One segment's scan summary.
struct SegmentScan {
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
/// `expected_first_lsn` 0 accepts any header LSN. An `on_record` error
/// aborts the scan as corruption, never a torn tail.
Result<SegmentScan> ScanSegmentBytes(
    std::string_view bytes, bool allow_torn_tail,
    std::uint64_t expected_first_lsn,
    const std::function<Status(std::uint64_t lsn, std::string_view payload)>&
        on_record);

/// Decodes one record payload (an rs::persist container holding exactly one
/// trace event); trailing bytes after the event are an error.
Status DecodePayload(std::string_view payload, trace::Event* event);

/// Reads a whole file into `out` (binary). IoError when unopenable.
Status ReadFileBytes(const std::string& path, std::string* out);

}  // namespace rs::wal::internal

/// \file persist.hpp
/// \brief Versioned, checksummed binary codec for durable serving state.
///
/// Snapshots (api::Scaler::SaveState, api::ScalerFleet::SaveFleet, tenant
/// migration records) are encoded as:
///
///   magic (u32, "RSNP")  format version (u32)
///   section*                                  tag (u32) + length (u64) + payload
///   crc32 (u32)                               over every preceding byte
///
/// All integers are explicit little-endian; doubles are the IEEE-754 bit
/// pattern as a little-endian u64, so a snapshot written on one machine
/// restores bit-identically on another. Sections nest freely (a fleet
/// snapshot holds tenant sections holding scaler sections); readers that
/// understand a section's prefix may ExitSection() early and the remaining
/// bytes are skipped, which is how newer writers stay readable by the
/// layer-version migration paths.
///
/// Version handshake: Reader::FromStream rejects snapshots whose format
/// version is newer than kFormatVersion with a descriptive Status (never a
/// crash); older versions are accepted and exposed via Reader::version() so
/// per-layer deserializers can migrate them. Corruption (truncation, bit
/// flips, wrong magic, section lengths past the buffer) is detected by the
/// CRC trailer and by bounds checks on every read — all failure modes
/// surface as a clean Status.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "rs/common/status.hpp"
#include "rs/stats/rng.hpp"

namespace rs::persist {

/// File magic "RSNP" and the codec-level format version. Bump the format
/// version only for incompatible *container* changes (header/section/crc
/// layout); layout changes inside one layer's sections bump that layer's
/// own version word instead (kScalerLayerVersion and friends live with the
/// layer serializers).
inline constexpr std::uint32_t kMagic = 0x504E5352u;  // "RSNP" little-endian.
inline constexpr std::uint32_t kFormatVersion = 1;

/// FourCC section tag, e.g. MakeTag('S','C','L','R').
constexpr std::uint32_t MakeTag(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

/// "SCLR" → printable form of a tag for error messages / the inspector.
std::string TagToString(std::uint32_t tag);

// Registry of section tags (kept in one place so layers cannot collide).
inline constexpr std::uint32_t kTagScaler = MakeTag('S', 'C', 'L', 'R');
inline constexpr std::uint32_t kTagSpec = MakeTag('S', 'P', 'E', 'C');
inline constexpr std::uint32_t kTagBuildContext = MakeTag('C', 'T', 'X', 'T');
inline constexpr std::uint32_t kTagTrained = MakeTag('T', 'R', 'N', 'D');
inline constexpr std::uint32_t kTagStrategyModel = MakeTag('S', 'T', 'R', 'A');
inline constexpr std::uint32_t kTagMirror = MakeTag('M', 'I', 'R', 'R');
inline constexpr std::uint32_t kTagTenant = MakeTag('T', 'E', 'N', 'T');
inline constexpr std::uint32_t kTagFleet = MakeTag('F', 'L', 'E', 'T');
inline constexpr std::uint32_t kTagRobustModel = MakeTag('R', 'O', 'B', 'S');
inline constexpr std::uint32_t kTagBackupPoolModel = MakeTag('B', 'P', 'M', 'D');
inline constexpr std::uint32_t kTagAdaptiveModel = MakeTag('A', 'B', 'P', 'M');
inline constexpr std::uint32_t kTagFreshnessPolicy = MakeTag('F', 'P', 'O', 'L');
inline constexpr std::uint32_t kTagFreshness = MakeTag('F', 'R', 'S', 'H');
inline constexpr std::uint32_t kTagDriftDetector = MakeTag('D', 'R', 'F', 'T');
inline constexpr std::uint32_t kTagTrainSession = MakeTag('T', 'S', 'E', 'S');
// Per-tenant degradation health (breaker state + counters), fleet layer v3+.
inline constexpr std::uint32_t kTagHealth = MakeTag('H', 'L', 'T', 'H');
// rs::trace serving captures (docs/TRACE_FORMAT.md is the normative spec).
inline constexpr std::uint32_t kTagTraceCapture = MakeTag('T', 'R', 'C', 'E');
inline constexpr std::uint32_t kTagTraceMeta = MakeTag('T', 'M', 'E', 'T');
inline constexpr std::uint32_t kTagTraceEvents = MakeTag('T', 'E', 'V', 'T');
// rs::wal journal checkpoint container (docs/WAL_FORMAT.md).
inline constexpr std::uint32_t kTagWalCheckpoint = MakeTag('W', 'C', 'K', 'P');

class Printer;  // fields.hpp: the field-list printer describe entries take.

/// CRC-32 (IEEE reflected, poly 0xEDB88320) over `n` bytes; chainable via
/// `seed`. Exposed for the snapshot inspector and corruption tests. On an
/// x86-64 CPU with PCLMULQDQ (checked at run time), inputs of 64 bytes or
/// more fold 16 bytes per carry-less multiply and finish the last 0-15
/// bytes with the slicing-by-8 tables that compute everything else; both
/// kernels give the same value.
std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

/// Stores the low `width` bytes of `value` at `at`, least significant
/// first: the one little-endian store behind every Writer encoding. It
/// stores by shifts, so the bytes do not depend on the host's byte order.
inline void StoreLe(char* at, std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    at[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
  }
}

/// Loads `width` bytes at `at` as a little-endian value, the inverse of
/// StoreLe: the one little-endian load behind every Reader decoding and
/// the journal's segment and frame headers.
inline std::uint64_t LoadLe(const char* at, std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(at[i]))
             << (8 * i);
  }
  return value;
}

/// \brief Buffered snapshot encoder.
///
/// Accumulates the encoded bytes in memory (section lengths are backpatched
/// when a section closes), then Finish() appends the CRC trailer and writes
/// the whole snapshot to the output stream in one pass — a failed or
/// interrupted write can therefore never leave a half-written header that
/// looks valid. One writer encodes one container per Finish(); Reset()
/// starts the next one in the same buffer, so a reused encoder stops
/// allocating once warm.
///
/// ResetBare() instead starts a bare byte run: the same field encodings
/// with no container header and no CRC trailer, for a caller that frames
/// and checksums the bytes itself (an rs::wal journal record). A bare run
/// is read with Reader::OverBytes and is never Finish()ed.
class Writer {
 public:
  Writer();

  /// Discards the encoded bytes and rewrites the container header, keeping
  /// the buffer's capacity.
  void Reset();

  /// Discards the encoded bytes and starts a bare byte run (no header),
  /// keeping the buffer's capacity.
  void ResetBare();

  /// Exchanges contents and buffers with `other` (swapping with a fresh
  /// Writer frees this one's capacity).
  void swap(Writer& other) noexcept;

  void WriteU8(std::uint8_t value);
  void WriteBool(bool value);
  void WriteU32(std::uint32_t value);
  void WriteU64(std::uint64_t value);
  void WriteDouble(double value);
  void WriteString(std::string_view value);
  void WriteDoubleVector(const std::vector<double>& values);
  void WriteU64Vector(const std::vector<std::uint64_t>& values);

  /// Appends `n` bytes for the caller to fill and returns where they start,
  /// valid until the next write or Reset(): a caller that sizes a record
  /// up front stores its fields there in one run, not one append each.
  char* Extend(std::size_t n);

  /// Opens a tagged section; sections nest. Every BeginSection must be
  /// matched by EndSection before Finish().
  void BeginSection(std::uint32_t tag);
  void EndSection();

  /// Appends the CRC trailer to the buffer and returns the whole container,
  /// valid until the next write or Reset().
  std::string_view Finish();

  /// Finish(), then writes the container to `out`.
  Status Finish(std::ostream& out);

  /// Overwrites the u32 at byte `offset` of the encoded bytes (a bare
  /// run's caller fills in fields it reserved before the payload).
  void PatchU32(std::size_t offset, std::uint32_t value);

  /// The encoded bytes so far, valid until the next write or Reset().
  std::string_view bytes() const { return buffer_; }

  /// Encoded size so far (header + sections, plus the CRC trailer once
  /// finished).
  std::size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
  std::vector<std::size_t> open_;  ///< Offsets of unpatched section lengths.
};

/// The one layout-version check of every versioned record: `version` must
/// lie in [1, newest]. No build writes version 0, so 0 reports corrupt
/// input; a higher version reports a record written by a newer build.
/// `what` names the record in the message (e.g. "BP model record").
Status CheckLayerVersion(std::string_view what, std::uint32_t version,
                         std::uint32_t newest);

/// \brief Bounds-checked snapshot decoder.
///
/// FromStream() loads the whole snapshot, then validates magic, format
/// version, and CRC before any field is decoded. Every subsequent read is
/// bounds-checked against the innermost open section, so corrupt lengths
/// (truncation, overflow) fail with a Status instead of reading out of
/// bounds.
class Reader {
 public:
  /// Reads all of `in` and validates the container (magic, version, CRC).
  static Result<Reader> FromStream(std::istream& in);

  /// Same validation over an in-memory snapshot (tests, inspector).
  static Result<Reader> FromBytes(std::string bytes);

  /// Reads a bare byte run (Writer::ResetBare) in place: there is no
  /// header or CRC to validate, and nothing is copied, so `bytes` must
  /// outlive the reader. version() is 0.
  static Reader OverBytes(std::string_view bytes);

  /// Format version of the loaded snapshot (<= kFormatVersion).
  std::uint32_t version() const { return version_; }

  Result<std::uint8_t> ReadU8();
  Result<bool> ReadBool();
  Result<std::uint32_t> ReadU32();
  Result<std::uint64_t> ReadU64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  Status ReadDoubleVector(std::vector<double>* out);
  Status ReadU64Vector(std::vector<std::uint64_t>* out);

  /// Reads a record's u32 layout version and checks it with
  /// CheckLayerVersion; `version`, when set, receives it.
  Status ReadLayerVersion(std::string_view what, std::uint32_t newest,
                          std::uint32_t* version = nullptr);

  /// Tag of the next section without consuming it.
  Result<std::uint32_t> PeekSectionTag() const;

  /// True when the innermost section's next bytes open a `tag` section
  /// (false at its end or before anything else).
  bool AtSection(std::uint32_t tag) const;

  /// Opens the next section, which must carry `expected` as its tag.
  Status EnterSection(std::uint32_t expected);

  /// Closes the innermost section, skipping any bytes the caller did not
  /// read (forward compatibility for layer-version migrations).
  Status ExitSection();

  /// Skips the next section wholesale (unknown tags in the inspector).
  Status SkipSection();

  /// Bytes left before the innermost open section (or the snapshot) ends.
  std::size_t remaining() const { return limit() - cursor_; }

  /// Consumes the next `width` (<= 8) bytes as a little-endian value; with
  /// fewer remaining, consumes nothing and returns false. The bounds-checked
  /// load under every fixed-width read.
  bool TakeLe(std::size_t width, std::uint64_t* value) {
    if (remaining() < width) return false;
    *value = LoadLe(data() + cursor_, width);
    cursor_ += width;
    return true;
  }
  /// The error of a `width`-byte read that TakeLe refused.
  Status Underflow(std::size_t width) const;

 private:
  Result<std::uint64_t> ReadRaw(std::size_t width);
  std::size_t limit() const {
    return ends_.empty() ? payload_end_ : ends_.back();
  }
  const char* data() const {
    return borrowed_ != nullptr ? borrowed_ : bytes_.data();
  }

  std::string bytes_;               ///< The container (FromBytes).
  const char* borrowed_ = nullptr;  ///< The bare run (OverBytes).
  std::size_t cursor_ = 0;
  std::size_t payload_end_ = 0;  ///< End of the readable bytes (before a
                                 ///< container's CRC trailer).
  std::uint32_t version_ = 0;
  std::vector<std::size_t> ends_;  ///< End offsets of open sections.
};

}  // namespace rs::persist

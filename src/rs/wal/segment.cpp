/// \file segment.cpp
/// \brief Segment frame codec + scanner + payload decoder (shared by Open
///        repair and InspectSegmentFile), for both segment layouts.
///        docs/WAL_FORMAT.md is the normative spec.
#include <fstream>
#include <sstream>

#include "rs/persist/persist.hpp"
#include "rs/trace/trace.hpp"
#include "rs/wal/internal.hpp"

namespace rs::wal::internal {

void BeginFrame(std::uint64_t lsn, persist::Writer* frame) {
  frame->ResetBare();
  frame->WriteU64(lsn);
  frame->WriteU64(0);  // Length and CRC, filled in by SealFrame.
}

void SealFrame(persist::Writer* frame) {
  const std::string_view bytes = frame->bytes();
  const std::size_t len = bytes.size() - kFrameHeaderBytes;
  frame->PatchU32(8, static_cast<std::uint32_t>(len));
  std::uint32_t crc = persist::Crc32(bytes.data(), 12);
  crc = persist::Crc32(bytes.data() + kFrameHeaderBytes, len, crc);
  frame->PatchU32(12, crc);
}

std::string BuildSegmentHeader(std::uint64_t first_lsn) {
  persist::Writer header;
  header.ResetBare();
  header.WriteU32(kSegmentMagic);
  header.WriteU32(kSegmentLayoutVersion);
  header.WriteU64(first_lsn);
  return std::string(header.bytes());
}

Result<SegmentScan> ScanSegmentBytes(
    std::string_view bytes, bool allow_torn_tail,
    std::uint64_t expected_first_lsn,
    const std::function<Status(std::uint64_t lsn, std::uint32_t version,
                               std::string_view payload)>& on_record) {
  if (bytes.size() < kSegmentHeaderBytes) {
    std::ostringstream msg;
    msg << "journal segment is " << bytes.size() << " bytes, smaller than the "
        << kSegmentHeaderBytes << "-byte header";
    return Status::Invalid(msg.str());
  }
  const std::uint64_t magic = persist::LoadLe(bytes.data(), 4);
  if (magic != kSegmentMagic) {
    std::ostringstream msg;
    msg << "not a journal segment: bad magic 0x" << std::hex << magic
        << " (expected \"RSWJ\")";
    return Status::Invalid(msg.str());
  }
  SegmentScan scan;
  scan.version =
      static_cast<std::uint32_t>(persist::LoadLe(bytes.data() + 4, 4));
  RS_RETURN_NOT_OK(persist::CheckLayerVersion(
      "journal segment layout", scan.version, kSegmentLayoutVersion));
  const std::size_t min_payload = MinPayloadBytes(scan.version);
  scan.first_lsn = persist::LoadLe(bytes.data() + 8, 8);
  if (expected_first_lsn != 0 && scan.first_lsn != expected_first_lsn) {
    std::ostringstream msg;
    msg << "journal segment header claims first LSN " << scan.first_lsn
        << " but LSN " << expected_first_lsn
        << " is expected here (LSN gap: a segment is missing or reordered)";
    return Status::Invalid(msg.str());
  }

  std::uint64_t expected = scan.first_lsn;
  std::size_t offset = kSegmentHeaderBytes;
  // The first invalid record ends the log: a crash can only tear the final
  // write, so nothing past the break is trustworthy framing. Past the last
  // non-zero byte lies the zero padding of a preallocated active segment.
  const auto broken = [&](const char* why) -> Result<SegmentScan> {
    const std::size_t last_nonzero =
        bytes.substr(offset).find_last_not_of('\0');
    const std::size_t torn =
        last_nonzero == std::string_view::npos ? 0 : last_nonzero + 1;
    if (allow_torn_tail) {
      scan.valid_bytes = offset;
      scan.torn_bytes = torn;
      scan.padding_bytes = bytes.size() - offset - torn;
      return scan;
    }
    std::ostringstream msg;
    msg << "journal segment corrupt at byte offset " << offset << ": "
        << (torn == 0 ? "zero padding" : why)
        << " (not the journal's last segment, so this cannot be a torn "
           "tail or padding left by a crash)";
    return Status::Invalid(msg.str());
  };

  while (offset < bytes.size()) {
    const std::size_t remaining = bytes.size() - offset;
    if (remaining < kFrameHeaderBytes) {
      return broken("truncated record frame header");
    }
    const char* frame = bytes.data() + offset;
    const std::uint64_t lsn = persist::LoadLe(frame, 8);
    const std::uint64_t len = persist::LoadLe(frame + 8, 4);
    const std::uint64_t stored_crc = persist::LoadLe(frame + 12, 4);
    if (lsn != expected) {
      return broken("record LSN breaks the contiguous sequence");
    }
    if (len < min_payload || len > remaining - kFrameHeaderBytes) {
      return broken("record length field exceeds the segment");
    }
    std::uint32_t crc = persist::Crc32(frame, 12);
    crc = persist::Crc32(frame + kFrameHeaderBytes, len, crc);
    if (crc != stored_crc) {
      return broken("record CRC mismatch");
    }
    RS_RETURN_NOT_OK(on_record(lsn, scan.version,
                               bytes.substr(offset + kFrameHeaderBytes, len)));
    ++scan.records;
    scan.last_lsn = lsn;
    expected = lsn + 1;
    offset += kFrameHeaderBytes + len;
  }
  scan.valid_bytes = offset;
  return scan;
}

namespace {

/// Decodes the one event `reader` holds; trailing bytes are an error.
Status DecodeOnlyEvent(persist::Reader* reader, trace::Event* event) {
  RS_RETURN_NOT_OK(trace::DecodeEvent(reader, event));
  if (reader->remaining() != 0) {
    return Status::Invalid("journal record payload carries " +
                           std::to_string(reader->remaining()) +
                           " trailing bytes after the event");
  }
  return Status::OK();
}

}  // namespace

Status DecodePayload(std::uint32_t version, std::string_view payload,
                     trace::Event* event) {
  if (version == 1) {
    RS_ASSIGN_OR_RETURN(persist::Reader container,
                        persist::Reader::FromBytes(std::string(payload)));
    return DecodeOnlyEvent(&container, event);
  }
  persist::Reader bare = persist::Reader::OverBytes(payload);
  return DecodeOnlyEvent(&bare, event);
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  // One sized read straight into the result (segments run to megabytes
  // and restart reads every one).
  const std::streamoff size = in.tellg();
  if (size < 0) {
    return Status::IoError("cannot size " + path);
  }
  in.seekg(0);
  out->resize(static_cast<std::size_t>(size));
  if (!in.read(out->data(), size)) {
    return Status::IoError("failed to read " + path);
  }
  return Status::OK();
}

}  // namespace rs::wal::internal

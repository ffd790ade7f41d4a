/// \file rs_snapshot.cpp
/// \brief Snapshot inspector: prints every field of an rs::persist
///        container (Scaler, tenant, fleet, journal checkpoint, rs::trace
///        serving capture) through the field lists the library encodes and
///        decodes with.
///
/// Usage:  rs_snapshot [--verify] <snapshot-or-journal-file>
///
/// Journal segment files (magic "RSWJ", either layout version) are walked
/// record by record (CRC, framing, LSN contiguity, one event per payload;
/// torn tails and padding are reported, pre-tail corruption fails).
/// Unknown top-level tags are skipped, and fields a newer writer appended
/// to a known section are skipped when the section closes. The inspector
/// never mutates its input, and the codec's CRC and bounds checks turn
/// every malformation into a printed error.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "rs/api/scaler.hpp"
#include "rs/api/scaler_fleet.hpp"
#include "rs/persist/fields.hpp"
#include "rs/persist/persist.hpp"
#include "rs/trace/trace.hpp"
#include "rs/wal/wal.hpp"

namespace {

using rs::Status;
using rs::persist::Reader;

Status Inspect(Reader* reader, std::ostream& out) {
  out << "format version " << reader->version() << ", payload "
            << reader->remaining() << " bytes\n";
  rs::persist::Printer printer(reader, &out);
  while (reader->remaining() > 0) {
    RS_ASSIGN_OR_RETURN(const std::uint32_t tag, reader->PeekSectionTag());
    if (tag == rs::persist::kTagFleet) {
      RS_RETURN_NOT_OK(rs::api::ScalerFleet::DescribeFleetSection(&printer));
    } else if (tag == rs::persist::kTagTenant) {
      RS_RETURN_NOT_OK(rs::api::ScalerFleet::DescribeTenantRecord(&printer));
    } else if (tag == rs::persist::kTagScaler) {
      RS_RETURN_NOT_OK(rs::api::Scaler::DescribeState(&printer));
    } else if (tag == rs::persist::kTagTraceCapture) {
      RS_RETURN_NOT_OK(rs::trace::Capture::DescribeSection(&printer));
    } else if (tag == rs::persist::kTagWalCheckpoint) {
      RS_RETURN_NOT_OK(rs::wal::DescribeCheckpoint(&printer));
    } else {
      out << "(skipping unknown section "
                << rs::persist::TagToString(tag) << ")\n";
      RS_RETURN_NOT_OK(reader->SkipSection());
    }
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  bool verify = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verify") {
      verify = true;
    } else if (!path) {
      path = argv[i];
    } else {
      path = nullptr;
      break;
    }
  }
  if (!path) {
    std::cerr << "usage: rs_snapshot [--verify] <snapshot-file>\n";
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "rs_snapshot: cannot open " << path << '\n';
    return 1;
  }
  // Journal segments (rs::wal, magic "RSWJ") are not persist containers;
  // route them to the segment walker: header magic/version, per-record CRC
  // + length framing, LSN contiguity. A torn tail and zero padding are
  // reported (legal — a crash mid-append leaves them; recovery truncates
  // the tail); corruption before the tail fails.
  char magic[4] = {};
  in.read(magic, 4);
  if (in.gcount() == 4 && std::string(magic, 4) == "RSWJ") {
    auto report = rs::wal::InspectSegmentFile(path);
    if (!report.ok()) {
      std::cerr << "rs_snapshot: " << report.status().message() << '\n';
      return 1;
    }
    std::cout << path << ": journal segment (layout v" << report->version
              << "), " << report->records << " record(s)";
    if (report->records > 0) {
      std::cout << ", LSN " << report->first_lsn << ".." << report->last_lsn;
    } else {
      std::cout << " (first LSN " << report->first_lsn << ")";
    }
    std::cout << ", " << report->bytes << " bytes";
    if (report->torn_tail_bytes > 0) {
      std::cout << ", torn tail " << report->torn_tail_bytes
                << " byte(s) (recovery truncates it)";
    }
    if (report->padding_bytes > 0) {
      std::cout << ", zero padding " << report->padding_bytes
                << " byte(s) (left by a killed writer)";
    }
    std::cout << (verify ? " — OK (CRC and framing verified)" : "") << '\n';
    return 0;
  }
  in.clear();
  in.seekg(0);
  auto reader = Reader::FromStream(in);
  if (!reader.ok()) {
    std::cerr << "rs_snapshot: " << reader.status().message() << '\n';
    return 1;
  }
  const std::size_t payload = reader.ValueOrDie().remaining();
  // --verify still runs the whole walk (every section bound on top of the
  // CRC check), into a stream without a buffer, which drops the print.
  std::ostream discard(nullptr);
  const Status st = Inspect(&reader.ValueOrDie(), verify ? discard : std::cout);
  if (!st.ok()) {
    std::cerr << "rs_snapshot: " << st.message() << '\n';
    return 1;
  }
  if (verify) {
    std::cout << path << ": OK (" << payload << " payload bytes, CRC and "
              << "section bounds verified)\n";
  }
  return 0;
}

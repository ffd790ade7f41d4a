/// \file capture.cpp
/// \brief On-disk codec for serving captures. docs/TRACE_FORMAT.md is the
///        normative spec for everything encoded here — keep the two in sync
///        (tools/trace_spec_check.py re-decodes the committed example
///        capture from the spec alone in CI).
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "rs/persist/fields.hpp"
#include "rs/persist/persist.hpp"
#include "rs/trace/trace.hpp"

namespace rs::trace {

namespace {

/// Layout version of the TRCE section. Bump for incompatible event-record
/// changes; readers reject newer versions with a descriptive Status and
/// accept older ones (there are none yet).
constexpr std::uint32_t kTraceLayerVersion = 1;

/// An Encoder output under the Writer's method names and encodings that
/// counts the bytes a record takes (kStore false), or stores them into a
/// run reserved with persist::Writer::Extend (kStore true): one field list
/// sizes a PlanAll record, then stores it in one run.
template <bool kStore>
class Run {
 public:
  explicit Run(char* at = nullptr) : at_(at) {}

  void WriteU8(std::uint8_t value) { Store(value, 1); }
  void WriteBool(bool value) { WriteU8(value ? 1 : 0); }
  void WriteU32(std::uint32_t value) { Store(value, 4); }
  void WriteU64(std::uint64_t value) { Store(value, 8); }
  void WriteDouble(double value) {
    WriteU64(std::bit_cast<std::uint64_t>(value));
  }
  void WriteString(std::string_view value) {
    WriteU64(value.size());
    if constexpr (kStore) std::memcpy(at_, value.data(), value.size());
    Advance(value.size());
  }
  void WriteDoubleVector(const std::vector<double>& values) {
    WriteU64(values.size());
    for (const double v : values) WriteDouble(v);
  }

  /// The bytes counted so far (kStore false).
  std::size_t bytes() const { return bytes_; }

 private:
  void Store(std::uint64_t value, std::size_t width) {
    if constexpr (kStore) persist::StoreLe(at_, value, width);
    Advance(width);
  }
  // The store pass advances its pointer, not an offset from the run's
  // start: GCC then merges each StoreLe's byte stores into one store.
  void Advance(std::size_t width) {
    if constexpr (kStore) {
      at_ += width;
    } else {
      bytes_ += width;
    }
  }

  char* at_;
  std::size_t bytes_ = 0;
};

/// An embedded Scaler::SaveState container (kRegister, kReplaceModel): a
/// string on the wire, printed as its size.
template <class Bytes>
struct Snapshot {
  Bytes& bytes;
};

template <class Out>
void Put(Out* out, const Snapshot<const std::string>& v) {
  out->WriteString(v.bytes);
}

void Get(persist::Reader* r, Snapshot<std::string>* v, Status* error) {
  persist::Get(r, &v->bytes, error);
}

void Show(std::ostream& os, const Snapshot<std::string>& v) {
  os << v.bytes.size() << "-byte scaler snapshot";
}

/// An Observe's outcome: one byte, bit 0 a cold start, bit 1 a cancelled
/// earliest scheduled creation. The decoded event keeps two flags, so the
/// byte is checked as it is read.
template <class Bool>
struct Outcome {
  Bool& cold_start;
  Bool& cancel_earliest;
};

template <class Out>
void Put(Out* out, const Outcome<const bool>& v) {
  out->WriteU8(static_cast<std::uint8_t>((v.cold_start ? 1u : 0u) |
                                         (v.cancel_earliest ? 2u : 0u)));
}

void Get(persist::Reader* r, Outcome<bool>* v, Status* error) {
  std::uint64_t bits = 0;
  if (!r->TakeLe(1, &bits)) {
    *error = r->Underflow(1);
  } else if (bits > 3) {
    *error = Status::Invalid(
        "trace capture carries corrupt Observe outcome bits (value " +
        std::to_string(bits) + ")");
  } else {
    v->cold_start = (bits & 1u) != 0;
    v->cancel_earliest = (bits & 2u) != 0;
  }
}

void Show(std::ostream& os, const Outcome<bool>& v) {
  os << (v.cold_start ? "cold start" : "served warm")
     << (v.cancel_earliest ? ", cancelled the earliest creation" : "");
}

// The clock and action lists are declared inline: out of line, the one-run
// PlanAll store calls them per tenant and keeps its cursor in memory.
template <class Io, class Clock>
inline void ClockFields(Io& io, Clock& clock) {
  io("clock_position", clock.has_position);
  io("clock_time", clock.time);
  io("clock_readings", clock.readings);
}

template <class Io, class Action>
inline void ActionFields(Io& io, Action& action) {
  io("creation_times", action.creation_times);
  io("deletions", action.deletions);
}

/// One event record (docs/TRACE_FORMAT.md, "Event records"): the kind
/// byte, then that kind's fields. Kind 0 carries none and is refused after
/// the decode (CheckEvent).
template <class Io, class Ev>
Status EventFields(Io& io, Ev& e) {
  io("event kind", e.kind, EventKind::kPlanAll);
  switch (e.kind) {
    case EventKind::kRegister: {
      io("id", e.id);
      io("name", e.name);
      Snapshot state{e.state};
      io("state", state);
      break;
    }
    case EventKind::kRetire:
      io("id", e.id);
      break;
    case EventKind::kReplaceModel: {
      io("id", e.id);
      io("at_next_plan", e.at_next_plan);
      Snapshot state{e.state};
      io("state", state);
      break;
    }
    case EventKind::kObserve: {
      io("id", e.id);
      io("time", e.time);
      Outcome outcome{e.cold_start, e.cancel_earliest};
      io("outcome", outcome);
      break;
    }
    case EventKind::kPlan:
      io("id", e.id);
      io("time", e.time);
      ClockFields(io, e.clock);
      ActionFields(io, e.action);
      break;
    case EventKind::kPlanAll:
      io("time", e.time);
      io.Each("plans", e.plans, [](auto& field, auto& plan) {
        field("id", plan.id);
        field("ok", plan.ok);
        ClockFields(field, plan.clock);
        if (plan.ok) ActionFields(field, plan.action);
      });
      break;
  }
  return io.status();
}

/// The checks an event's decode leaves to its reader.
Status CheckEvent(const Event& event) {
  if (event.kind == EventKind{0}) {
    return Status::Invalid(
        "trace capture carries unknown event kind 0; the file is corrupt or "
        "from a newer writer that forgot to bump the trace layer version");
  }
  if (event.kind == EventKind::kRegister && event.name.empty()) {
    return Status::Invalid(
        "trace capture registers a tenant with an empty name; the file is "
        "corrupt");
  }
  return Status::OK();
}

/// The capture record: the TRCE layout version, the TMET metadata (a
/// reader skips fields a newer writer appended there) and the TEVT events,
/// after which neither TEVT nor TRCE may hold another byte.
template <class Io, class Rec>
Status CaptureFields(Io& io, Rec& capture) {
  io.Section("serving capture", persist::kTagTraceCapture, [&] {
    io.Version("trace capture layer", kTraceLayerVersion);
    io.Section("metadata", persist::kTagTraceMeta, [&] {
      io("producer", capture.producer);
      io("label", capture.label);
    });
    io.Section("events", persist::kTagTraceEvents, [&] {
      io.Each("events", capture.events,
              [](auto& field, auto& event) { EventFields(field, event); });
      io.End("the last event");
    });
    io.End("the events section");
  });
  return io.status();
}

/// Decodes a capture through `io` (a Decoder or a Printer) and checks it.
template <class Io>
Result<Capture> ReadCapture(Io& io) {
  Capture capture;
  RS_RETURN_NOT_OK(CaptureFields(io, capture));
  for (const Event& event : capture.events) {
    RS_RETURN_NOT_OK(CheckEvent(event));
  }
  return capture;
}

}  // namespace

void EncodeEvent(persist::Writer* writer, const Event& event) {
  if (event.kind != EventKind::kPlanAll) {
    persist::Encoder io(writer);
    EventFields(io, event);
    return;
  }
  // A boundary's record is the journal's largest on the serving path: size
  // it once, then store every field into one run.
  Run<false> count;
  persist::Encoder sizing(&count);
  EventFields(sizing, event);
  Run<true> run(writer->Extend(count.bytes()));
  persist::Encoder store(&run);
  EventFields(store, event);
}

Status DecodeEvent(persist::Reader* reader, Event* event) {
  persist::Decoder io(reader);
  RS_RETURN_NOT_OK(EventFields(io, *event));
  return CheckEvent(*event);
}

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kRegister:
      return "register";
    case EventKind::kRetire:
      return "retire";
    case EventKind::kReplaceModel:
      return "replace-model";
    case EventKind::kObserve:
      return "observe";
    case EventKind::kPlan:
      return "plan";
    case EventKind::kPlanAll:
      return "plan-all";
  }
  return "unknown";
}

Status Capture::SaveSection(persist::Writer* writer) const {
  persist::Encoder io(writer);
  return CaptureFields(io, *this);
}

Result<Capture> Capture::LoadSection(persist::Reader* reader) {
  persist::Decoder io(reader);
  return ReadCapture(io);
}

Status Capture::DescribeSection(persist::Printer* printer) {
  return ReadCapture(*printer).status();
}

Status Capture::Save(std::ostream& out) const {
  persist::Writer writer;
  RS_RETURN_NOT_OK(SaveSection(&writer));
  return writer.Finish(out);
}

namespace {

/// A capture file's one TRCE section, with nothing after it.
Result<Capture> LoadContainer(persist::Reader* reader) {
  RS_ASSIGN_OR_RETURN(Capture capture, Capture::LoadSection(reader));
  if (reader->remaining() != 0) {
    return Status::Invalid(std::to_string(reader->remaining()) +
                           " stray bytes after the capture section");
  }
  return capture;
}

}  // namespace

Result<Capture> Capture::Load(std::istream& in) {
  RS_ASSIGN_OR_RETURN(persist::Reader reader, persist::Reader::FromStream(in));
  return LoadContainer(&reader);
}

Result<Capture> Capture::FromBytes(std::string bytes) {
  RS_ASSIGN_OR_RETURN(persist::Reader reader,
                      persist::Reader::FromBytes(std::move(bytes)));
  return LoadContainer(&reader);
}

Result<std::string> Capture::ToBytes() const {
  std::ostringstream out(std::ios::binary);
  RS_RETURN_NOT_OK(Save(out));
  return std::move(out).str();
}

Capture Capture::Prefix(std::size_t n) const {
  Capture prefix;
  prefix.producer = producer;
  prefix.label = label;
  if (n > events.size()) n = events.size();
  prefix.events.assign(events.begin(),
                       events.begin() + static_cast<std::ptrdiff_t>(n));
  return prefix;
}

}  // namespace rs::trace

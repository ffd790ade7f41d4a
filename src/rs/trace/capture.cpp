/// \file capture.cpp
/// \brief On-disk codec for serving captures. docs/TRACE_FORMAT.md is the
///        normative spec for everything encoded here — keep the two in sync
///        (tools/trace_spec_check.py re-decodes the committed example
///        capture from the spec alone in CI).
#include <bit>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "rs/persist/persist.hpp"
#include "rs/trace/trace.hpp"

namespace rs::trace {

namespace {

/// Layout version of the TRCE section. Bump for incompatible event-record
/// changes; readers reject newer versions with a descriptive Status and
/// accept older ones (there are none yet).
constexpr std::uint32_t kTraceLayerVersion = 1;

/// A PlanAll tenant's id, ok flag and clock (4 + 1 + 17 bytes); an ok
/// tenant adds its action's count, times and deletions.
constexpr std::size_t kPlannedTenantBytes = 22;

/// Stores fields into a run reserved with persist::Writer::Extend, under
/// the Writer's method names and in its encodings, so WriteClock and
/// WriteAction lay a field out the same way into either.
class RunStore {
 public:
  explicit RunStore(char* at) : at_(at) {}

  void WriteU8(std::uint8_t value) { Store(value, 1); }
  void WriteBool(bool value) { WriteU8(value ? 1 : 0); }
  void WriteU32(std::uint32_t value) { Store(value, 4); }
  void WriteU64(std::uint64_t value) { Store(value, 8); }
  void WriteDouble(double value) {
    WriteU64(std::bit_cast<std::uint64_t>(value));
  }
  void WriteDoubleVector(const std::vector<double>& values) {
    WriteU64(values.size());
    for (const double v : values) WriteDouble(v);
  }

 private:
  void Store(std::uint64_t value, std::size_t width) {
    persist::StoreLe(at_, value, width);
    at_ += width;
  }

  char* at_;
};

template <typename Out>
void WriteClock(Out* out, const ClockMark& clock) {
  out->WriteBool(clock.has_position);
  out->WriteDouble(clock.time);
  out->WriteU64(clock.readings);
}

Status ReadClock(persist::Reader* reader, ClockMark* clock) {
  RS_ASSIGN_OR_RETURN(clock->has_position, reader->ReadBool());
  RS_ASSIGN_OR_RETURN(clock->time, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(clock->readings, reader->ReadU64());
  return Status::OK();
}

template <typename Out>
void WriteAction(Out* out, const sim::ScalingAction& action) {
  out->WriteDoubleVector(action.creation_times);
  out->WriteU64(action.deletions);
}

Status ReadAction(persist::Reader* reader, sim::ScalingAction* action) {
  RS_RETURN_NOT_OK(reader->ReadDoubleVector(&action->creation_times));
  RS_ASSIGN_OR_RETURN(const std::uint64_t deletions, reader->ReadU64());
  action->deletions = static_cast<std::size_t>(deletions);
  return Status::OK();
}

}  // namespace

void EncodeEvent(persist::Writer* writer, const Event& event) {
  writer->WriteU8(static_cast<std::uint8_t>(event.kind));
  switch (event.kind) {
    case EventKind::kRegister:
      writer->WriteU32(event.id);
      writer->WriteString(event.name);
      writer->WriteString(event.state);
      break;
    case EventKind::kRetire:
      writer->WriteU32(event.id);
      break;
    case EventKind::kReplaceModel:
      writer->WriteU32(event.id);
      writer->WriteBool(event.at_next_plan);
      writer->WriteString(event.state);
      break;
    case EventKind::kObserve:
      writer->WriteU32(event.id);
      writer->WriteDouble(event.time);
      writer->WriteU8(static_cast<std::uint8_t>(
          (event.cold_start ? 1u : 0u) | (event.cancel_earliest ? 2u : 0u)));
      break;
    case EventKind::kPlan:
      writer->WriteU32(event.id);
      writer->WriteDouble(event.time);
      WriteClock(writer, event.clock);
      WriteAction(writer, event.action);
      break;
    case EventKind::kPlanAll: {
      // A boundary's record is the journal's largest on the serving path:
      // size it once and store every field into one run.
      std::size_t bytes = 16;
      for (const PlannedTenant& plan : event.plans) {
        bytes += kPlannedTenantBytes;
        if (plan.ok) bytes += 16 + 8 * plan.action.creation_times.size();
      }
      RunStore run(writer->Extend(bytes));
      run.WriteDouble(event.time);
      run.WriteU64(event.plans.size());
      for (const PlannedTenant& plan : event.plans) {
        run.WriteU32(plan.id);
        run.WriteBool(plan.ok);
        WriteClock(&run, plan.clock);
        if (plan.ok) WriteAction(&run, plan.action);
      }
      break;
    }
  }
}

Status DecodeEvent(persist::Reader* reader, Event* event) {
  RS_ASSIGN_OR_RETURN(const std::uint8_t kind, reader->ReadU8());
  if (kind < 1 || kind > 6) {
    return Status::Invalid("trace capture carries unknown event kind " +
                           std::to_string(kind) +
                           "; the file is corrupt or from a newer writer "
                           "that forgot to bump the trace layer version");
  }
  event->kind = static_cast<EventKind>(kind);
  switch (event->kind) {
    case EventKind::kRegister: {
      RS_ASSIGN_OR_RETURN(event->id, reader->ReadU32());
      RS_ASSIGN_OR_RETURN(event->name, reader->ReadString());
      RS_ASSIGN_OR_RETURN(event->state, reader->ReadString());
      if (event->name.empty()) {
        return Status::Invalid(
            "trace capture registers a tenant with an empty name; the file "
            "is corrupt");
      }
      break;
    }
    case EventKind::kRetire: {
      RS_ASSIGN_OR_RETURN(event->id, reader->ReadU32());
      break;
    }
    case EventKind::kReplaceModel: {
      RS_ASSIGN_OR_RETURN(event->id, reader->ReadU32());
      RS_ASSIGN_OR_RETURN(event->at_next_plan, reader->ReadBool());
      RS_ASSIGN_OR_RETURN(event->state, reader->ReadString());
      break;
    }
    case EventKind::kObserve: {
      RS_ASSIGN_OR_RETURN(event->id, reader->ReadU32());
      RS_ASSIGN_OR_RETURN(event->time, reader->ReadDouble());
      RS_ASSIGN_OR_RETURN(const std::uint8_t outcome, reader->ReadU8());
      if (outcome > 3) {
        return Status::Invalid(
            "trace capture carries corrupt Observe outcome bits (value " +
            std::to_string(outcome) + ")");
      }
      event->cold_start = (outcome & 1u) != 0;
      event->cancel_earliest = (outcome & 2u) != 0;
      break;
    }
    case EventKind::kPlan: {
      RS_ASSIGN_OR_RETURN(event->id, reader->ReadU32());
      RS_ASSIGN_OR_RETURN(event->time, reader->ReadDouble());
      RS_RETURN_NOT_OK(ReadClock(reader, &event->clock));
      RS_RETURN_NOT_OK(ReadAction(reader, &event->action));
      break;
    }
    case EventKind::kPlanAll: {
      RS_ASSIGN_OR_RETURN(event->time, reader->ReadDouble());
      RS_ASSIGN_OR_RETURN(const std::uint64_t count, reader->ReadU64());
      // Every per-tenant record is at least id + ok + clock bytes; a count
      // claiming more than the section holds is corrupt, not an allocation.
      if (count > reader->remaining() / kPlannedTenantBytes) {
        return Status::Invalid(
            "trace capture claims " + std::to_string(count) +
            " tenants in a PlanAll batch but the section is too small");
      }
      event->plans.resize(static_cast<std::size_t>(count));
      for (PlannedTenant& plan : event->plans) {
        RS_ASSIGN_OR_RETURN(plan.id, reader->ReadU32());
        RS_ASSIGN_OR_RETURN(plan.ok, reader->ReadBool());
        RS_RETURN_NOT_OK(ReadClock(reader, &plan.clock));
        if (plan.ok) RS_RETURN_NOT_OK(ReadAction(reader, &plan.action));
      }
      break;
    }
  }
  return Status::OK();
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
  writer->BeginSection(persist::kTagTraceCapture);
  writer->WriteU32(kTraceLayerVersion);

  writer->BeginSection(persist::kTagTraceMeta);
  writer->WriteString(producer);
  writer->WriteString(label);
  writer->EndSection();

  writer->BeginSection(persist::kTagTraceEvents);
  writer->WriteU64(events.size());
  for (const Event& event : events) EncodeEvent(writer, event);
  writer->EndSection();

  writer->EndSection();
  return Status::OK();
}

Result<Capture> Capture::LoadSection(persist::Reader* reader) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagTraceCapture));
  std::uint32_t version = 0;
  RS_RETURN_NOT_OK(reader->ReadLayerVersion("trace capture layer",
                                            kTraceLayerVersion, &version));
  Capture capture;

  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagTraceMeta));
  RS_ASSIGN_OR_RETURN(capture.producer, reader->ReadString());
  RS_ASSIGN_OR_RETURN(capture.label, reader->ReadString());
  // Skip any metadata a newer minor writer appended (forward compat).
  RS_RETURN_NOT_OK(reader->ExitSection());

  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagTraceEvents));
  RS_ASSIGN_OR_RETURN(const std::uint64_t count, reader->ReadU64());
  // The smallest event (retire) is 5 bytes; a larger count is corruption.
  if (count > reader->remaining() / 5) {
    return Status::Invalid("trace capture claims " + std::to_string(count) +
                           " events but the event section holds only " +
                           std::to_string(reader->remaining()) + " bytes");
  }
  capture.events.resize(static_cast<std::size_t>(count));
  for (Event& event : capture.events) {
    RS_RETURN_NOT_OK(DecodeEvent(reader, &event));
  }
  RS_RETURN_NOT_OK(reader->ExitSection());

  RS_RETURN_NOT_OK(reader->ExitSection());
  return capture;
}

Status Capture::Save(std::ostream& out) const {
  persist::Writer writer;
  RS_RETURN_NOT_OK(SaveSection(&writer));
  return writer.Finish(out);
}

Result<Capture> Capture::Load(std::istream& in) {
  RS_ASSIGN_OR_RETURN(persist::Reader reader, persist::Reader::FromStream(in));
  return LoadSection(&reader);
}

Result<Capture> Capture::FromBytes(std::string bytes) {
  RS_ASSIGN_OR_RETURN(persist::Reader reader,
                      persist::Reader::FromBytes(std::move(bytes)));
  return LoadSection(&reader);
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

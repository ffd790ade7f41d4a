/// \file recorder.cpp
/// \brief EventTap — the one ServingTap-to-trace::Event mapping and its
///        tenant intern table — and the Recorder that appends its events
///        to a capture as a live fleet serves.
#include <sstream>
#include <utility>

#include "rs/trace/trace.hpp"

namespace rs::trace {

namespace {

Result<std::string> SerializeScaler(const api::Scaler& scaler) {
  std::ostringstream out(std::ios::binary);
  RS_RETURN_NOT_OK(scaler.SaveState(out));
  return std::move(out).str();
}

}  // namespace

// -- EventTap -----------------------------------------------------------------

Status EventTap::AttachAndSnapshot(api::ScalerFleet* fleet, const char* who) {
  if (fleet == nullptr) {
    return Status::Invalid(std::string(who) + ": fleet is null");
  }
  if (fleet_ != nullptr) {
    return Status::Invalid(std::string(who) +
                           ": already attached (Detach first; one tap "
                           "records one fleet at a time)");
  }
  RS_RETURN_NOT_OK(fleet->AttachTap(this));
  fleet_ = fleet;
  // Register the tenants already serving that the stream has not seen, in
  // registration order: replay restores these snapshots and continues
  // byte-identically from the attach point, while a re-attach (or a fleet
  // a journal just recovered) registers nothing twice.
  for (const std::string& tenant : fleet->Tenants()) {
    if (ids_.count(tenant) != 0) continue;
    const api::Scaler* scaler = fleet->Find(tenant);
    if (scaler == nullptr) {
      Detach();
      return Status::Invalid(std::string(who) + ": fleet lists tenant \"" +
                             tenant + "\" but Find() returns no scaler for it");
    }
    auto state = SerializeScaler(*scaler);
    if (!state.ok()) {
      Detach();
      return Status(state.status().code(),
                    std::string(who) + ": tenant \"" + tenant +
                        "\" cannot be snapshotted: " +
                        state.status().message());
    }
    Event event;
    event.kind = EventKind::kRegister;
    event.id = next_id_;
    event.name = tenant;
    event.state = std::move(state).ValueOrDie();
    Intern(event);
    Emit(std::move(event));
  }
  return Status::OK();
}

void EventTap::Detach() {
  if (fleet_ == nullptr) return;
  fleet_->DetachTap();
  fleet_ = nullptr;
}

void EventTap::Intern(const Event& event) {
  if (event.kind == EventKind::kRegister) {
    names_[event.id] = event.name;
    ids_[event.name] = event.id;
    if (event.id >= next_id_) next_id_ = event.id + 1;
  } else if (event.kind == EventKind::kRetire) {
    const auto named = names_.find(event.id);
    if (named == names_.end()) return;
    const auto live = ids_.find(named->second);
    if (live != ids_.end() && live->second == event.id) ids_.erase(live);
  }
}

std::uint32_t EventTap::InternId(const std::string& tenant) const {
  const auto it = ids_.find(tenant);
  // The fleet only fires callbacks for tenants it holds, and every way a
  // tenant can land in the fleet fires OnRegister first, so the lookup
  // cannot miss; 0 (never a valid id) keeps a corrupted stream decodable.
  return it == ids_.end() ? 0 : it->second;
}

void EventTap::OnRegister(const std::string& tenant,
                          const api::Scaler& scaler) {
  Event event;
  event.kind = EventKind::kRegister;
  event.id = next_id_;
  event.name = tenant;
  auto state = SerializeScaler(scaler);
  // A scaler whose strategy cannot serialize is caught at Attach for
  // existing tenants; for one registered mid-stream the event carries an
  // empty state, which replay rejects with a descriptive error rather than
  // silently dropping the tenant.
  if (state.ok()) event.state = std::move(state).ValueOrDie();
  Intern(event);
  Emit(std::move(event));
}

void EventTap::OnRetire(const std::string& tenant) {
  Event event;
  event.kind = EventKind::kRetire;
  event.id = InternId(tenant);
  Intern(event);
  Emit(std::move(event));
}

void EventTap::OnReplaceModel(const std::string& tenant,
                              const api::Scaler& incoming, bool at_next_plan) {
  Event event;
  event.kind = EventKind::kReplaceModel;
  event.id = InternId(tenant);
  event.at_next_plan = at_next_plan;
  auto state = SerializeScaler(incoming);
  if (state.ok()) event.state = std::move(state).ValueOrDie();
  Emit(std::move(event));
}

void EventTap::OnObserve(const std::string& tenant, double arrival_time,
                         const api::Scaler::ObserveOutcome& outcome) {
  Event event;
  event.kind = EventKind::kObserve;
  event.id = InternId(tenant);
  event.time = arrival_time;
  event.cold_start = outcome.cold_start;
  event.cancel_earliest = outcome.cancel_earliest_scheduled;
  Emit(std::move(event));
}

void EventTap::OnPlan(const std::string& tenant, double now,
                      const sim::ScalingAction& action,
                      const ClockMark& clock) {
  Event event;
  event.kind = EventKind::kPlan;
  event.id = InternId(tenant);
  event.time = now;
  event.clock = clock;
  event.action = action;
  Emit(std::move(event));
}

void EventTap::OnPlanAll(double now,
                         const std::vector<api::ScalerFleet::TenantPlan>& plans,
                         const std::vector<ClockMark>& clocks) {
  // Filled in place: a tap that only encodes the event (the journal) keeps
  // every tenant slot and its creation_times capacity for the next
  // boundary, so a steady boundary allocates nothing here. One that moves
  // it out (the Recorder) leaves it empty, and it regrows.
  Event& event = plan_all_;
  event.kind = EventKind::kPlanAll;
  event.time = now;
  event.plans.resize(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    PlannedTenant& plan = event.plans[i];
    plan.id = InternId(plans[i].tenant);
    plan.ok = plans[i].status.ok();
    plan.clock = i < clocks.size() ? clocks[i] : ClockMark{};
    if (plan.ok) {
      plan.action = plans[i].action;  // Copy-assigning keeps the capacity.
    } else {
      plan.action.creation_times.clear();
      plan.action.deletions = 0;
    }
  }
  Emit(std::move(event));
}

// -- Recorder -----------------------------------------------------------------

Recorder::Recorder(std::string label) {
  capture_.producer = "robustscaler rs::trace";
  capture_.label = std::move(label);
}

Status Recorder::Attach(api::ScalerFleet* fleet) {
  return AttachAndSnapshot(fleet, "Recorder::Attach");
}

Capture Recorder::TakeCapture() {
  Capture out = std::move(capture_);
  capture_ = Capture{};
  capture_.producer = out.producer;
  capture_.label = out.label;
  ids_.clear();
  names_.clear();
  next_id_ = 1;
  return out;
}

void Recorder::Emit(Event&& event) {
  capture_.events.push_back(std::move(event));
}

}  // namespace rs::trace

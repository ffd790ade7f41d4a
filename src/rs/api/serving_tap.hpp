/// \file serving_tap.hpp
/// \brief Observer hook over a ScalerFleet's serving traffic.
///
/// A ServingTap attached via ScalerFleet::AttachTap sees every successful
/// serving-facing operation — tenant lifecycle, Observe arrivals, Plan
/// drains — with exactly the values the caller saw, after the fleet applied
/// them. rs::trace::EventTap implements this interface once, turning each
/// callback into a trace event; its two subclasses are rs::trace::Recorder
/// (captures a serving session into a durable trace, docs/TRACE_FORMAT.md)
/// and rs::wal::FleetJournal (appends each event to a write-ahead journal,
/// docs/WAL_FORMAT.md). Dashboards or shadow pipelines can implement it
/// too.
///
/// Contract for implementations:
///  * Callbacks fire on the fleet's caller thread, never from pool workers
///    (PlanAll fires once, after the worker join, in registration order
///    inside the batch), so implementations need no locking of their own as
///    long as they follow the fleet's single-caller-thread rule.
///  * Callbacks fire only for operations that succeeded (a failed Observe
///    or Plan mutates no serving state, so a faithful re-drive does not
///    need it). PlanAll is the exception: its per-tenant failures are part
///    of the one batch result and are reported with ok = false.
///  * Const access to the fleet from inside a callback is allowed (the
///    fleet has finished mutating before it fires); re-entrant mutation
///    (Register/Observe/... from a callback) is not.
///  * A tap and the freshness loop are mutually exclusive: background
///    retrains complete at wall-time-dependent moments, which no recorded
///    event stream could re-drive deterministically. AttachTap refuses on a
///    freshness-enabled fleet and EnableFreshness refuses while a tap is
///    attached. Manual ReplaceModel / ReplaceModelAtNextPlan are fully
///    supported — the incoming model is handed to the tap so a recorder
///    can snapshot it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rs/api/scaler.hpp"
#include "rs/api/scaler_fleet.hpp"
#include "rs/simulator/autoscaler.hpp"

namespace rs::api {

/// Logical decision-clock position after a plan, exported via
/// sim::DecisionClock::ExportPosition. `has_position` is false for clocks
/// with no restorable position (the SteadyDecisionClock default) — both
/// sides of a replay then compare trivially equal, which is correct: wall
/// time was never part of the deterministic contract.
struct TapClockMark {
  bool has_position = false;
  double time = 0.0;
  std::uint64_t readings = 0;
};

class ServingTap {
 public:
  virtual ~ServingTap() = default;

  /// A tenant landed in the fleet (Register, RestoreTenant, LoadFleet,
  /// MigrateTenant's target side). `scaler` is the registered instance —
  /// its SaveState is the state a re-drive must start this tenant from.
  virtual void OnRegister(const std::string& tenant, const Scaler& scaler) {
    (void)tenant;
    (void)scaler;
  }

  virtual void OnRetire(const std::string& tenant) { (void)tenant; }

  /// A model swap. Immediate swaps (`at_next_plan` false) pass the
  /// installed scaler, after the serving-config carry; deferred swaps pass
  /// the still-pending incoming scaler (the carry happens at the boundary
  /// on both the recorded and the re-driven side).
  virtual void OnReplaceModel(const std::string& tenant, const Scaler& incoming,
                              bool at_next_plan) {
    (void)tenant;
    (void)incoming;
    (void)at_next_plan;
  }

  virtual void OnObserve(const std::string& tenant, double arrival_time,
                         const Scaler::ObserveOutcome& outcome) {
    (void)tenant;
    (void)arrival_time;
    (void)outcome;
  }

  /// A single-tenant Plan drain. `action` is the caller-facing result and
  /// `clock` the tenant's decision-clock position right after it.
  virtual void OnPlan(const std::string& tenant, double now,
                      const sim::ScalingAction& action,
                      const TapClockMark& clock) {
    (void)tenant;
    (void)now;
    (void)action;
    (void)clock;
  }

  /// One PlanAll batch: `plans` in registration order (exactly what the
  /// caller receives, per-tenant failures included), `clocks[i]` the
  /// position of `plans[i]`'s tenant clock after the batch.
  virtual void OnPlanAll(double now,
                         const std::vector<ScalerFleet::TenantPlan>& plans,
                         const std::vector<TapClockMark>& clocks) {
    (void)now;
    (void)plans;
    (void)clocks;
  }
};

}  // namespace rs::api

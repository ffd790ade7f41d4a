/// \file autoscaler.hpp
/// \brief The interface every scaling strategy implements (BP, AdapBP and
///        the three RobustScaler variants all plug into the same engine).
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "rs/common/status.hpp"

namespace rs::persist {
class Writer;
class Reader;
class Printer;
}  // namespace rs::persist

namespace rs::sim {

/// Sentinel for Autoscaler::history_requirement(): the strategy may read
/// arbitrarily old arrivals, so serving state must retain the full history.
inline constexpr double kUnboundedHistory =
    std::numeric_limits<double>::infinity();

/// Snapshot of the simulation state handed to strategies when they decide.
struct SimContext {
  double now = 0.0;                 ///< Current simulation time (seconds).
  std::size_t queries_arrived = 0;  ///< Arrivals so far (= instances consumed).
  /// Unconsumed instances that exist (ready or still pending startup).
  std::size_t instances_alive = 0;
  /// Of those, already fully started (warm and idle).
  std::size_t instances_ready = 0;
  /// Creation actions scheduled for the future but not yet executed.
  std::size_t scheduled_creations = 0;
  /// Arrival times of all queries seen so far (ascending); never null
  /// during callbacks. Strategies may inspect recent traffic (AdapBP).
  const std::vector<double>* arrival_history = nullptr;

  /// Instances that can still serve upcoming queries: alive + scheduled.
  std::size_t Outstanding() const {
    return instances_alive + scheduled_creations;
  }
};

/// Actions returned by a strategy: create instances at the given absolute
/// times (>= now; earlier values are clamped to now), and/or delete
/// `deletions` unconsumed instances (latest-created idle ones first).
struct ScalingAction {
  std::vector<double> creation_times;
  std::size_t deletions = 0;

  bool Empty() const { return creation_times.empty() && deletions == 0; }
};

/// \brief Base class for autoscaling strategies driven by the engine.
///
/// The engine calls Initialize once at simulation start, OnPlanningTick
/// every planning_interval seconds, and OnQueryArrival after each arrival
/// is matched (cold_start tells whether the engine had to create the
/// instance reactively).
class Autoscaler {
 public:
  virtual ~Autoscaler() = default;

  /// Strategy name for reports.
  virtual const char* name() const = 0;

  /// Interval between OnPlanningTick calls; <= 0 disables ticks.
  virtual double planning_interval() const { return 0.0; }

  /// \brief How many seconds of arrival history (behind `ctx.now`) the
  ///        strategy reads through SimContext::arrival_history.
  ///
  /// Long-running serving state (api::Scaler) uses this bound as its
  /// retention floor: arrivals older than `now - history_requirement()` may
  /// be compacted away without changing any decision the strategy makes.
  /// Return 0 when the strategy never reads the history, a finite window
  /// when it only inspects recent traffic (AdapBP), and kUnboundedHistory
  /// (the conservative default) when old arrivals stay relevant forever
  /// (e.g. periodic model refitting).
  virtual double history_requirement() const { return kUnboundedHistory; }

  /// Bytes of persistent planning scratch the strategy currently retains
  /// (Monte Carlo workspaces and the like); 0 when it keeps none. Serving
  /// snapshots aggregate this so long-lived fleets can watch workspace
  /// memory track tenant sizes.
  virtual std::size_t planning_workspace_bytes() const { return 0; }

  /// \brief Writes the strategy's *mutable* model state (adaptive targets,
  ///        RNG position, learned estimates) into a durable snapshot.
  ///
  /// Construction-time parameters travel separately (the api layer
  /// re-creates the strategy from its StrategySpec before deserializing),
  /// so implementations persist exactly what a freshly constructed instance
  /// would not already have. Purely derived caches and planning scratch
  /// (Monte Carlo workspaces, warm solver pivots) must NOT be serialized:
  /// they only affect speed, never the emitted actions. The default refuses
  /// with NotImplemented so strategies that opt out fail loudly at snapshot
  /// time, never silently restoring half a model.
  virtual Status SerializeModel(persist::Writer* writer) const;

  /// Restores the state written by SerializeModel() onto a strategy rebuilt
  /// from the same StrategySpec; the continuation is byte-identical to the
  /// snapshotted instance. Must validate what it reads (snapshots can be
  /// old or corrupt) and return Status rather than crash.
  virtual Status DeserializeModel(persist::Reader* reader);

  virtual ScalingAction Initialize(const SimContext& ctx) {
    (void)ctx;
    return {};
  }

  virtual ScalingAction OnPlanningTick(const SimContext& ctx) {
    (void)ctx;
    return {};
  }

  virtual ScalingAction OnQueryArrival(const SimContext& ctx, bool cold_start) {
    (void)ctx;
    (void)cold_start;
    return {};
  }
};

}  // namespace rs::sim

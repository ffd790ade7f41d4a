/// \file scaler.hpp
/// \brief The builder-style facade over the RobustScaler pipeline: one
///        object that owns the train-then-serve lifecycle.
///
///   auto scaler = rs::api::ScalerBuilder()
///                     .WithTrace(train)
///                     .WithBinWidth(60.0)
///                     .WithForecastHorizon(test.horizon())
///                     .WithTarget(rs::api::HitRate{0.9})
///                     .Build();
///
/// A built Scaler serves two modes with the same trained policy:
///  * batch replay — Replay()/Evaluate() run the simulator over a test
///    trace (the paper's experiment mode);
///  * online serving — Observe(arrival)/Plan(now)/Snapshot() adapt the
///    policy for incremental production use: the caller reports arrivals and
///    periodically asks for the scaling actions to execute.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rs/api/strategy_registry.hpp"
#include "rs/api/strategy_spec.hpp"
#include "rs/api/targets.hpp"
#include "rs/common/status.hpp"
#include "rs/common/thread_pool.hpp"
#include "rs/core/pipeline.hpp"
#include "rs/simulator/engine.hpp"
#include "rs/simulator/metrics.hpp"
#include "rs/workload/trace.hpp"

namespace rs::persist {
class Writer;
class Reader;
}  // namespace rs::persist

namespace rs::api {

/// \brief Process-local resources a restored Scaler needs re-injected.
///
/// A snapshot is self-contained *data*; pointers into the old process (an
/// injected decision clock) obviously cannot travel with it. Restore
/// re-binds them here: a snapshot taken with an injected DecisionClock
/// refuses to restore without one (silently falling back to wall time
/// would break the deterministic-continuation contract).
struct ScalerRestoreOptions {
  /// Clock to restore the snapshot's decision-clock position onto (see
  /// sim::DecisionClock::ImportPosition). Required iff the snapshot was
  /// taken with an injected clock; must outlive the restored Scaler.
  sim::DecisionClock* decision_clock = nullptr;
};

/// Read-only view of the online serving state (for dashboards / tests).
struct ServingSnapshot {
  bool started = false;
  double now = 0.0;                    ///< Serving clock (s since start).
  std::size_t queries_observed = 0;
  std::size_t instances_alive = 0;     ///< Unconsumed instances (incl. pending).
  std::size_t instances_ready = 0;     ///< Of those, warm at `now`.
  std::size_t scheduled_creations = 0; ///< Future creations not yet executed.
  std::size_t cold_starts = 0;         ///< Arrivals that found no instance.
  std::size_t creations_requested = 0; ///< Total creations emitted so far.
  std::size_t deletions_requested = 0;
  std::size_t planning_rounds = 0;     ///< Strategy callbacks invoked.
  std::string strategy;                ///< Strategy name serving this scaler.

  // -- History retention (see Scaler::ConfigureHistoryRetention) ------------
  /// Effective retention window in seconds (infinity = keep everything):
  /// max(strategy history_requirement, configured override).
  double history_retention = 0.0;
  /// Arrival times currently held in the windowed buffer. Compared with
  /// `queries_observed` (the lifetime total) this shows the compaction at
  /// work: retained stays bounded while the total grows with traffic.
  std::size_t arrivals_retained = 0;
  /// ActionLog() entries currently held vs `planning_rounds` (the total).
  std::size_t actions_retained = 0;
  /// Bytes of persistent planning scratch (Monte Carlo workspaces, decision
  /// kernels) the strategy retains; tracks the strategy's R and shrinks when
  /// it drops. FleetSnapshot sums this across tenants.
  std::size_t planning_workspace_bytes = 0;
};

/// \brief A trained, ready-to-serve autoscaler (build via ScalerBuilder).
class Scaler {
 public:
  Scaler(Scaler&&) noexcept;
  Scaler& operator=(Scaler&&) noexcept;
  ~Scaler();

  /// Training artifacts (detected period, ADMM diagnostics, forecast, ...).
  const core::TrainedPipeline& trained() const { return trained_; }
  const workload::PiecewiseConstantIntensity& forecast() const {
    return trained_.forecast;
  }

  /// The underlying strategy, for advanced uses (custom sim::Simulate runs).
  sim::Autoscaler* strategy() const { return strategy_.get(); }

  /// Registry-style description of the serving strategy, e.g.
  /// "robust_hp:target=0.9".
  const std::string& strategy_name() const { return strategy_name_; }

  // -- Batch replay ---------------------------------------------------------

  /// \brief Replays `test` under the trained strategy.
  ///
  /// Validates that the trained forecast covers the test horizon — the
  /// classic silent-nonsense bug the facade exists to catch (a forecast
  /// shorter than the test trace degenerates to a constant tail). Fix by
  /// building with WithForecastHorizon(test.horizon()).
  ///
  /// Note: replay advances the strategy's internal Monte Carlo stream, so
  /// an Observe/Plan run on the same Scaler afterwards will not reproduce
  /// the replay's action sequence bit-for-bit. Build a fresh Scaler per
  /// mode when comparing the two (as tests/api_test.cpp does).
  Result<sim::SimulationResult> Replay(const workload::Trace& test);
  Result<sim::SimulationResult> Replay(const workload::Trace& test,
                                       const sim::EngineOptions& engine);

  /// Replay + ComputeMetrics in one call.
  Result<sim::Metrics> Evaluate(const workload::Trace& test);

  // -- Online serving -------------------------------------------------------
  //
  // The serving clock starts at 0 = the end of the training window (the
  // forecast's local time zero). Observe() reports each query arrival (in
  // nondecreasing time order) and returns the reactive work the arrival
  // itself forces on the caller (see ObserveOutcome); Plan() advances the
  // strategy's planning loop to `now` and returns the actions the caller
  // must execute: create instances at the given absolute times, delete
  // `deletions` idle instances (newest first).
  //
  // Polling cadence: call Plan() at least once per planning interval. The
  // mirror's planning loop runs at tick granularity regardless, so a late
  // poll returns past-dated creation times the real fleet can only start
  // late — the mirror then believes instances are warm sooner than they
  // are. Memory: the serving state is bounded. Arrival history and the
  // action log are compacted to a trailing window once entries age past the
  // strategy's declared lookback (Autoscaler::history_requirement), so
  // indefinitely-running deployments hold O(window) state, not O(traffic).
  // Strategies that declare kUnboundedHistory (e.g. refitting wrappers)
  // still retain everything; ConfigureHistoryRetention() can widen the
  // window (for dashboards) but never narrows it below the strategy's
  // floor.
  //
  // Internally the scaler runs the same sim::EventLoop that sim::Simulate
  // drives (using the configured pending-time model), one Observe()/Plan()
  // at a time, so its action sequence on a trace is identical to the batch
  // replay path — asserted in tests/api_test.cpp. (Identical to a *fresh*
  // replay: the strategy's Monte Carlo stream is shared between modes, so
  // interleaving Replay() calls perturbs subsequent Plan()s; see Replay's
  // note.)

  /// \brief Overrides the serving-time engine model (pending distribution,
  ///        seed, creation latency, decision-time charging). Must be called
  ///        before the first Observe()/Plan().
  ///
  /// Options are validated like registry parameters (creation_latency >= 0,
  /// pending_jitter in [0, 1]) — the same checks sim::Simulate applies.
  /// With charge_decision_wall_time set, the loop brackets every planning
  /// tick with the configured sim::DecisionClock (a real steady clock by
  /// default) and clamps the resulting creations to now + elapsed (Table
  /// IV's "real environment" mode); inject a
  /// FakeDecisionClock via EngineOptions::decision_clock to make the
  /// charged latencies deterministic. An injected clock must outlive the
  /// whole serving session — the options (clock pointer included) are kept
  /// and carried across ResetServing() into subsequent sessions.
  Status ConfigureServing(const sim::EngineOptions& options);

  /// \brief Sets the extra serving-state retention to `lookback_seconds`
  ///        behind the serving clock (replacing any previous setting).
  ///
  /// The effective window is max(strategy()->history_requirement(),
  /// lookback_seconds): the strategy's declared floor can never be
  /// narrowed, so retention can never change a decision — the knob only
  /// keeps more history around for observability. Pass
  /// sim::kUnboundedHistory to disable compaction entirely (e.g. to
  /// preserve the full parity log); note a later, smaller setting re-arms
  /// compaction and already-discarded history cannot come back. May be
  /// called at any time; applies from the next compaction.
  ///
  /// Interaction with durable snapshots: the retained window is exactly
  /// what SaveState() serializes, so widening retention grows every
  /// subsequent snapshot proportionally — with sim::kUnboundedHistory the
  /// snapshot grows without bound as traffic accumulates. Long-running
  /// deployments that snapshot periodically should keep the default
  /// (strategy-floor) retention unless they need the full log.
  Status ConfigureHistoryRetention(double lookback_seconds);

  /// What the caller must do in response to an observed arrival (the
  /// cold-start rule of Algorithm 1, which the scaler's mirror applies and
  /// the caller's fleet must apply too, or the two diverge).
  struct ObserveOutcome {
    /// No instance was available: create one immediately to serve this
    /// query (a reactive cold start).
    bool cold_start = false;
    /// The cold start consumed a creation that was already scheduled:
    /// cancel your earliest still-pending scheduled creation (it was
    /// intended for this query).
    bool cancel_earliest_scheduled = false;
  };

  /// Reports one query arrival at `arrival_time` (>= the serving clock).
  Result<ObserveOutcome> Observe(double arrival_time);

  /// Advances planning to `now` and returns the accumulated actions.
  Result<sim::ScalingAction> Plan(double now);

  /// Current serving state.
  ServingSnapshot Snapshot() const;

  /// The retained suffix of the parity log: one entry per strategy callback
  /// (initialize / planning tick / arrival), compacted to the retention
  /// window like the arrival history. Snapshot().planning_rounds still
  /// counts every callback ever made; ConfigureHistoryRetention(
  /// sim::kUnboundedHistory) keeps the log complete.
  const std::vector<sim::ScalingAction>& ActionLog() const;

  /// Discards online state for a fresh serving run. Note: the strategy's
  /// internal Monte Carlo stream is not rewound; build a fresh Scaler for
  /// bit-identical action replays.
  Status ResetServing();

  // -- Durable state --------------------------------------------------------

  /// \brief Writes a complete snapshot of this scaler — strategy spec,
  ///        forecast, strategy model state, and the entire serving mirror
  ///        (schedule, live set, retained arrival/action windows, RNG
  ///        position, decision-clock position) — as one rs::persist record.
  ///
  /// The contract: ScalerBuilder::RestoreState of this snapshot in a fresh
  /// process continues the serving session with a byte-identical action
  /// sequence to this instance never having stopped, under any planning-
  /// pool size (a wall-time knob, never behavior). Const: taking a snapshot
  /// perturbs nothing, so it can run on a live scaler between events.
  ///
  /// Size scales with the retained serving window (see
  /// ConfigureHistoryRetention) plus the forecast length. Training
  /// diagnostics (raw counts, NHPP parameters, ADMM info) are not
  /// persisted — serving only needs the forecast; retrain if you need them.
  Status SaveState(std::ostream& out) const;

  /// Prints a SCLR section field by field (the rs_snapshot inspector).
  static Status DescribeState(persist::Printer* printer);

 private:
  friend class ScalerBuilder;
  friend class ScalerFleet;  // Nests SaveStateSection into fleet records.
  struct Serving;

  /// Builder-time strategy-construction defaults that a snapshot must carry
  /// to rebuild the same strategy in a fresh process: RestoreState replays
  /// them through the registry exactly like Build() (explicit spec params
  /// still win over these defaults).
  struct StrategyBuildContext {
    stats::DurationDistribution pending =
        stats::DurationDistribution::Deterministic(13.0);
    std::size_t mc_samples = 300;
    double planning_interval = 1.0;
    std::uint64_t seed = 31;
  };

  Scaler(core::TrainedPipeline trained,
         std::unique_ptr<sim::Autoscaler> strategy, StrategySpec spec,
         StrategyBuildContext build_context, sim::EngineOptions serve_defaults);

  /// Builds a ready-to-serve scaler around an externally trained pipeline —
  /// the fleet's background-retrain path. The strategy is rebuilt through
  /// the registry from the retiring scaler's spec + build context (exactly
  /// like RestoreStateSection), with a fresh serving mirror; the caller
  /// layers the retiring scaler's serving config on top.
  static Result<Scaler> FromTrainedPipeline(core::TrainedPipeline trained,
                                            StrategySpec spec,
                                            StrategyBuildContext build_context);

  // Views into the pimpl'd Serving (defined only in scaler.cpp) that
  // ScalerFleet needs to carry serving configuration across a model swap.
  const sim::EngineOptions& serving_options() const;
  sim::DecisionClock* serving_clock() const;
  bool serving_started() const;
  double retention_override() const { return retention_override_; }

  /// SaveState minus the container framing, so fleet snapshots can nest
  /// per-tenant scaler records inside their own sections.
  Status SaveStateSection(persist::Writer* writer) const;
  Status SaveServingState(persist::Writer* writer) const;
  Status LoadServingState(persist::Reader* reader,
                          sim::DecisionClock* restore_clock);

  void EnsureStarted();
  /// Advances the serving loop to `t`, then compacts retained history.
  void AdvanceTo(double t);
  double EffectiveRetention() const;
  void CompactServingState();

  core::TrainedPipeline trained_;
  std::unique_ptr<sim::Autoscaler> strategy_;
  /// The structured spec the strategy was created from. SaveState persists
  /// this, not strategy_name_: FormatStrategySpec rounds parameters to six
  /// significant digits, and restore must feed the registry bit-exact
  /// values.
  StrategySpec spec_;
  StrategyBuildContext build_context_;
  std::string strategy_name_;
  sim::EngineOptions serve_defaults_;
  /// ConfigureHistoryRetention value; the effective window is the max of
  /// this and the strategy's declared history_requirement().
  double retention_override_ = 0.0;
  std::unique_ptr<Serving> serving_;
};

/// \brief Builder for Scaler: collects the training trace, model knobs, and
///        the serving strategy, validates them together, then trains.
///
/// Strategy selection: WithTarget() picks the matching RobustScaler variant
/// (HP/RT/cost); WithStrategy() selects any registered strategy by name +
/// params (the two are mutually exclusive). Default: HitRate{0.9}.
class ScalerBuilder {
 public:
  /// Training trace (required). The trace's horizon defines the training
  /// window; serving time 0 is the end of this window.
  ScalerBuilder& WithTrace(workload::Trace train);

  /// Bin width Δt in seconds for the fitted QPS series (default 60).
  ScalerBuilder& WithBinWidth(double dt);

  /// How far past training the forecast must extend (seconds). Set to at
  /// least the horizon you will Replay()/serve (default 86400).
  ScalerBuilder& WithForecastHorizon(double seconds);

  /// Periodicity-detection aggregation factor (default 1).
  ScalerBuilder& WithAggregateFactor(std::size_t factor);

  /// Scaling target; selects the RobustScaler variant (default HitRate{0.9}).
  ScalerBuilder& WithTarget(ScalingTarget target);

  /// Any registered strategy by name + params (mutually exclusive with
  /// WithTarget).
  ScalerBuilder& WithStrategy(StrategySpec spec);

  /// Instance pending/startup-time model τ_i (default: deterministic 13 s).
  ScalerBuilder& WithPending(stats::DurationDistribution pending);

  /// Planning interval Δ in seconds (default 1).
  ScalerBuilder& WithPlanningInterval(double seconds);

  /// Monte Carlo samples per decision (default 300).
  ScalerBuilder& WithMcSamples(std::size_t samples);

  /// Seed of the strategy's Monte Carlo stream (default 31).
  ScalerBuilder& WithSeed(std::uint64_t seed);

  /// Worker pool for the training passes (periodicity scoring, ADMM; see
  /// core::PipelineOptions::training_pool). The trained model is
  /// byte-identical for any pool size — this only changes training wall
  /// time. The pool must outlive Build().
  ScalerBuilder& WithTrainingPool(common::ThreadPool* pool);

  /// Expert escape hatch: full pipeline configuration (periodicity, ADMM,
  /// forecast, β weights). WithBinWidth / WithForecastHorizon /
  /// WithAggregateFactor still override their fields regardless of call
  /// order.
  ScalerBuilder& WithPipelineOptions(core::PipelineOptions options);

  /// Validates all options together, trains modules 1–3, and constructs the
  /// serving strategy (module 4).
  Result<Scaler> Build() const;

  // -- Durable state --------------------------------------------------------

  /// \brief Reconstructs a Scaler from a Scaler::SaveState snapshot — no
  ///        retraining, no traffic replay.
  ///
  /// The strategy is rebuilt through the StrategyRegistry from the
  /// serialized spec (so all factory validation re-runs), its mutable model
  /// state is overlaid via Autoscaler::DeserializeModel, and the serving
  /// mirror resumes at the exact event position it was saved at: the next
  /// Observe()/Plan() continues the action sequence byte-for-byte.
  /// Corrupt, truncated, or future-versioned snapshots fail with a
  /// descriptive Status, never UB.
  static Result<Scaler> RestoreState(std::istream& in,
                                     const ScalerRestoreOptions& options = {});

  /// Building block behind RestoreState and ScalerFleet::RestoreTenant:
  /// reads one scaler record at the reader's current position (the record
  /// written by Scaler::SaveStateSection). Most callers want RestoreState.
  static Result<Scaler> RestoreStateSection(persist::Reader* reader,
                                            const ScalerRestoreOptions& options);

 private:
  std::optional<workload::Trace> train_;
  core::PipelineOptions pipeline_;
  std::optional<double> dt_;
  std::optional<double> forecast_horizon_;
  std::optional<std::size_t> aggregate_factor_;
  std::optional<ScalingTarget> target_;
  std::optional<StrategySpec> spec_;
  stats::DurationDistribution pending_ =
      stats::DurationDistribution::Deterministic(13.0);
  double planning_interval_ = 1.0;
  std::size_t mc_samples_ = 300;
  std::uint64_t seed_ = 31;
  common::ThreadPool* training_pool_ = nullptr;
};

/// \brief Facade over module 1–3 training for callers that share one fit
///        across many strategies (the bench harnesses). Prefer
///        ScalerBuilder for the common train-then-serve path.
Result<core::TrainedPipeline> TrainPipeline(
    const workload::Trace& train, const core::PipelineOptions& options = {});

/// Convenience: Simulate + ComputeMetrics for a standalone strategy.
Result<sim::Metrics> Evaluate(const workload::Trace& test,
                              sim::Autoscaler* strategy,
                              const sim::EngineOptions& engine = {});

}  // namespace rs::api

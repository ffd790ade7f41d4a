#include "rs/api/scaler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "rs/api/scaler_serving.hpp"
#include "rs/train/training_session.hpp"

namespace rs::api {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Scaler::Scaler(core::TrainedPipeline trained,
               std::unique_ptr<sim::Autoscaler> strategy, StrategySpec spec,
               StrategyBuildContext build_context,
               sim::EngineOptions serve_defaults)
    : trained_(std::move(trained)),
      strategy_(std::move(strategy)),
      spec_(std::move(spec)),
      build_context_(build_context),
      strategy_name_(FormatStrategySpec(spec_)),
      serve_defaults_(serve_defaults),
      serving_(std::make_unique<Serving>(strategy_.get(), serve_defaults)) {}

Scaler::Scaler(Scaler&&) noexcept = default;
Scaler& Scaler::operator=(Scaler&&) noexcept = default;
Scaler::~Scaler() = default;

Result<Scaler> Scaler::FromTrainedPipeline(core::TrainedPipeline trained,
                                           StrategySpec spec,
                                           StrategyBuildContext build_context) {
  StrategyContext context;
  context.forecast = &trained.forecast;
  context.pending = build_context.pending;
  context.mc_samples = build_context.mc_samples;
  context.planning_interval = build_context.planning_interval;
  context.seed = build_context.seed;
  RS_ASSIGN_OR_RETURN(auto strategy,
                      StrategyRegistry::Global().Create(spec, context));
  sim::EngineOptions serve_defaults;
  serve_defaults.pending = build_context.pending;
  // The policies copy the forecast at construction, so moving `trained`
  // into the Scaler afterwards is safe (same as RestoreStateSection).
  return Scaler(std::move(trained), std::move(strategy), std::move(spec),
                build_context, serve_defaults);
}

const sim::EngineOptions& Scaler::serving_options() const {
  return serving_->loop.options;
}
sim::DecisionClock* Scaler::serving_clock() const {
  return serving_->loop.clock;
}
bool Scaler::serving_started() const { return serving_->loop.started; }

// -- Batch replay -----------------------------------------------------------

Result<sim::SimulationResult> Scaler::Replay(const workload::Trace& test) {
  return Replay(test, serve_defaults_);
}

Result<sim::SimulationResult> Scaler::Replay(const workload::Trace& test,
                                             const sim::EngineOptions& engine) {
  if (trained_.forecast.horizon() + 1e-9 < test.horizon()) {
    std::ostringstream msg;
    msg << "Scaler::Replay: trained forecast covers "
        << trained_.forecast.horizon() << " s but the test trace spans "
        << test.horizon()
        << " s; rebuild with WithForecastHorizon(test.horizon())";
    return Status::Invalid(msg.str());
  }
  return sim::Simulate(test, strategy_.get(), engine);
}

Result<sim::Metrics> Scaler::Evaluate(const workload::Trace& test) {
  RS_ASSIGN_OR_RETURN(auto result, Replay(test));
  return sim::ComputeMetrics(result);
}

// -- Online serving ---------------------------------------------------------

void Scaler::EnsureStarted() {
  if (!serving_->loop.started) serving_->loop.Start(*serving_);
}

void Scaler::AdvanceTo(double t) {
  serving_->loop.AdvanceTo(t, *serving_);
  CompactServingState();
}

Status Scaler::ConfigureServing(const sim::EngineOptions& options) {
  if (serving_->loop.started) {
    return Status::Invalid(
        "Scaler::ConfigureServing: serving already started; call before the "
        "first Observe()/Plan() or after ResetServing()");
  }
  // Same range checks the engine applies in Simulate(): the replay and
  // serving paths must reject exactly the same configurations.
  RS_RETURN_NOT_OK(sim::ValidateEngineOptions(options));
  serving_ = std::make_unique<Serving>(strategy_.get(), options);
  return Status::OK();
}

Status Scaler::ConfigureHistoryRetention(double lookback_seconds) {
  if (std::isnan(lookback_seconds) || lookback_seconds < 0.0) {
    std::ostringstream msg;
    msg << "Scaler::ConfigureHistoryRetention: lookback must be >= 0 s "
           "(sim::kUnboundedHistory to disable compaction), got "
        << lookback_seconds;
    return Status::Invalid(msg.str());
  }
  retention_override_ = lookback_seconds;
  return Status::OK();
}

double Scaler::EffectiveRetention() const {
  return std::max(strategy_->history_requirement(), retention_override_);
}

void Scaler::CompactServingState() {
  const double retention = EffectiveRetention();
  if (!(retention < kInf)) return;
  auto& s = *serving_;
  const double cutoff = s.loop.now - retention;
  // Entries strictly older than `cutoff` can no longer influence any
  // strategy decision (history_requirement is a lookback from `now`, and
  // the serving clock never rewinds). Trimming is amortized ring-buffer
  // style: the stale prefix is erased only once it is at least 64 entries
  // AND at least half the buffer, so steady-state serving does O(1) work
  // per event and the retained size stays within 2x the live window.
  const auto trim = [cutoff](std::vector<double>& times, auto&&... parallel) {
    const auto first_live =
        std::lower_bound(times.begin(), times.end(), cutoff);
    const auto stale =
        static_cast<std::size_t>(first_live - times.begin());
    if (stale < 64 || 2 * stale < times.size()) return;
    (parallel.erase(parallel.begin(),
                    parallel.begin() + static_cast<std::ptrdiff_t>(stale)),
     ...);
    times.erase(times.begin(), first_live);
  };
  trim(s.loop.arrivals);
  trim(s.log_times, s.log);
}

Result<Scaler::ObserveOutcome> Scaler::Observe(double arrival_time) {
  if (!std::isfinite(arrival_time)) {
    // Reject before EnsureStarted/AdvanceTo: NaN slips past the
    // monotonicity check below (NaN < x is false) and +inf would spin the
    // planning-tick loop forever. The serving mirror must stay untouched.
    std::ostringstream msg;
    msg << "Scaler::Observe: arrival time " << arrival_time
        << " is not finite";
    return Status::Invalid(msg.str());
  }
  EnsureStarted();
  Serving& s = *serving_;
  if (arrival_time < s.loop.now) {
    std::ostringstream msg;
    msg << "Scaler::Observe: arrival at " << arrival_time
        << " s precedes the serving clock (" << s.loop.now
        << " s); arrivals must be reported in nondecreasing order";
    return Status::Invalid(msg.str());
  }
  AdvanceTo(arrival_time);

  const sim::ArrivalOutcome arrival = s.loop.Arrive(arrival_time, s);
  ObserveOutcome outcome;
  outcome.cold_start = arrival.cold_start;
  if (arrival.cold_start) ++s.cold_starts;
  if (arrival.cancelled_seq.has_value()) {
    // The cold start cancelled a scheduled creation (Algorithm 1 line 7);
    // the returned outcome tells the caller to do the same to its fleet.
    if (*arrival.cancelled_seq >= s.drain_watermark) {
      // The caller has never seen this creation (it is still sitting in
      // the undrained Plan() buffer): retract it from the buffer instead
      // of asking the caller to cancel something it doesn't have. The
      // match is by emission number, not by time value — the buffer may
      // also hold an already-drained or already-executed creation with
      // the same timestamp, which must NOT be retracted.
      auto& seqs = s.buffered_seqs;
      const auto it =
          std::find(seqs.begin(), seqs.end(), *arrival.cancelled_seq);
      if (it != seqs.end()) {
        s.buffered.creation_times.erase(s.buffered.creation_times.begin() +
                                        (it - seqs.begin()));
        seqs.erase(it);
      }
    } else {
      // Already delivered through Plan(): the caller holds it and must
      // cancel it on its side.
      outcome.cancel_earliest_scheduled = true;
    }
  }
  CompactServingState();
  return outcome;
}

Result<sim::ScalingAction> Scaler::Plan(double now) {
  if (!std::isfinite(now)) {
    // Same hardening as Observe: a NaN/inf plan clock must never reach
    // AdvanceTo.
    std::ostringstream msg;
    msg << "Scaler::Plan: time " << now << " is not finite";
    return Status::Invalid(msg.str());
  }
  EnsureStarted();
  if (now < serving_->loop.now) {
    std::ostringstream msg;
    msg << "Scaler::Plan: time " << now << " s precedes the serving clock ("
        << serving_->loop.now << " s)";
    return Status::Invalid(msg.str());
  }
  AdvanceTo(now);
  // Everything buffered so far is now the caller's: advance the drain
  // watermark so a later cold start knows these creations must be cancelled
  // on the caller's side rather than silently retracted.
  serving_->buffered_seqs.clear();
  serving_->drain_watermark = serving_->loop.next_seq;
  return std::exchange(serving_->buffered, sim::ScalingAction{});
}

ServingSnapshot Scaler::Snapshot() const {
  const Serving& s = *serving_;
  ServingSnapshot snap;
  snap.started = s.loop.started;
  snap.now = s.loop.now;
  snap.queries_observed = s.loop.total_arrivals;
  snap.instances_alive = s.loop.live.size();
  snap.instances_ready = s.loop.Context(s.loop.now).instances_ready;
  snap.scheduled_creations = s.loop.schedule.size();
  snap.cold_starts = s.cold_starts;
  snap.creations_requested = s.creations_requested;
  snap.deletions_requested = s.deletions_requested;
  snap.planning_rounds = s.total_callbacks;
  snap.strategy = strategy_name_;
  snap.history_retention = EffectiveRetention();
  snap.arrivals_retained = s.loop.arrivals.size();
  snap.actions_retained = s.log.size();
  snap.planning_workspace_bytes = strategy_->planning_workspace_bytes();
  return snap;
}

const std::vector<sim::ScalingAction>& Scaler::ActionLog() const {
  return serving_->log;
}

Status Scaler::ResetServing() {
  serving_ = std::make_unique<Serving>(strategy_.get(), serving_->loop.options);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ScalerBuilder
// ---------------------------------------------------------------------------

ScalerBuilder& ScalerBuilder::WithTrace(workload::Trace train) {
  train_ = std::move(train);
  return *this;
}
ScalerBuilder& ScalerBuilder::WithBinWidth(double dt) {
  dt_ = dt;
  return *this;
}
ScalerBuilder& ScalerBuilder::WithForecastHorizon(double seconds) {
  forecast_horizon_ = seconds;
  return *this;
}
ScalerBuilder& ScalerBuilder::WithAggregateFactor(std::size_t factor) {
  aggregate_factor_ = factor;
  return *this;
}
ScalerBuilder& ScalerBuilder::WithTarget(ScalingTarget target) {
  target_ = target;
  return *this;
}
ScalerBuilder& ScalerBuilder::WithStrategy(StrategySpec spec) {
  spec_ = std::move(spec);
  return *this;
}
ScalerBuilder& ScalerBuilder::WithPending(stats::DurationDistribution pending) {
  pending_ = pending;
  return *this;
}
ScalerBuilder& ScalerBuilder::WithPlanningInterval(double seconds) {
  planning_interval_ = seconds;
  return *this;
}
ScalerBuilder& ScalerBuilder::WithMcSamples(std::size_t samples) {
  mc_samples_ = samples;
  return *this;
}
ScalerBuilder& ScalerBuilder::WithSeed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}
ScalerBuilder& ScalerBuilder::WithPipelineOptions(
    core::PipelineOptions options) {
  pipeline_ = std::move(options);
  return *this;
}
ScalerBuilder& ScalerBuilder::WithTrainingPool(common::ThreadPool* pool) {
  training_pool_ = pool;
  return *this;
}

Result<Scaler> ScalerBuilder::Build() const {
  // Cross-field validation: every misconfiguration that used to silently
  // produce nonsense downstream fails here with an actionable message.
  if (!train_.has_value()) {
    return Status::Invalid("ScalerBuilder: no training trace; call WithTrace");
  }
  if (train_->empty() || train_->horizon() <= 0.0) {
    return Status::Invalid(
        "ScalerBuilder: training trace is empty or has a non-positive "
        "horizon");
  }
  core::PipelineOptions pipeline = pipeline_;
  if (training_pool_ != nullptr) pipeline.training_pool = training_pool_;
  if (dt_.has_value()) pipeline.dt = *dt_;
  if (forecast_horizon_.has_value()) pipeline.forecast_horizon = *forecast_horizon_;
  if (aggregate_factor_.has_value()) {
    pipeline.periodicity.aggregate_factor = *aggregate_factor_;
  }
  if (!(pipeline.dt > 0.0)) {
    return Status::Invalid("ScalerBuilder: bin width must be > 0 s");
  }
  if (pipeline.dt > train_->horizon() / 2.0) {
    std::ostringstream msg;
    msg << "ScalerBuilder: bin width " << pipeline.dt
        << " s leaves fewer than two bins in the " << train_->horizon()
        << " s training window";
    return Status::Invalid(msg.str());
  }
  if (!(pipeline.forecast_horizon > 0.0)) {
    return Status::Invalid("ScalerBuilder: forecast horizon must be > 0 s");
  }
  if (pipeline.periodicity.aggregate_factor == 0) {
    return Status::Invalid("ScalerBuilder: aggregate factor must be >= 1");
  }
  if (!(planning_interval_ > 0.0)) {
    return Status::Invalid("ScalerBuilder: planning interval must be > 0 s");
  }
  // A WithStrategy spec may override the planning interval via its params;
  // cross-field checks must look at the value the strategy will really use.
  double effective_planning_interval = planning_interval_;
  if (spec_.has_value()) {
    const auto it = spec_->params.find("planning_interval");
    if (it != spec_->params.end()) effective_planning_interval = it->second;
  }
  if (pipeline.forecast_horizon < effective_planning_interval) {
    std::ostringstream msg;
    msg << "ScalerBuilder: forecast horizon (" << pipeline.forecast_horizon
        << " s) is shorter than one planning interval ("
        << effective_planning_interval << " s)";
    return Status::Invalid(msg.str());
  }
  if (mc_samples_ == 0) {
    return Status::Invalid("ScalerBuilder: mc_samples must be >= 1");
  }
  if (target_.has_value() && spec_.has_value()) {
    return Status::Invalid(
        "ScalerBuilder: WithTarget and WithStrategy are mutually exclusive; "
        "set the target as a strategy parameter instead");
  }

  // Train modules 1–3 through the training service. The builder is a thin
  // client of a one-shot session: a cold Fit() on the binned trace is
  // byte-identical to the old direct TrainRobustScaler call (the fleet's
  // freshness loop runs long-lived sessions of the same class and
  // warm-starts them — see rs/train/training_session.hpp).
  RS_ASSIGN_OR_RETURN(auto session,
                      train::TrainingSession::FromTrace(*train_, pipeline));
  RS_ASSIGN_OR_RETURN(auto trained, session.Fit());

  // Construct the serving strategy (module 4) through the registry so the
  // target semantics live in exactly one place.
  StrategySpec spec;
  if (spec_.has_value()) {
    spec = *spec_;
  } else {
    // Target semantics and validation live with the registry factories
    // (TargetFromParam/ApplyTarget); here we only forward the raw value.
    const ScalingTarget target = target_.value_or(ScalingTarget(HitRate{0.9}));
    spec.name = StrategyNameOf(target);
    spec.params["target"] = RawTargetValue(target);
  }

  // WithSeed / WithMcSamples / WithPlanningInterval flow through the context
  // as factory defaults for both selection styles; explicit spec parameters
  // of the same name still win.
  StrategyContext context;
  context.forecast = &trained.forecast;
  context.pending = pending_;
  context.mc_samples = mc_samples_;
  context.planning_interval = planning_interval_;
  context.seed = seed_;
  RS_ASSIGN_OR_RETURN(auto strategy,
                      StrategyRegistry::Global().Create(spec, context));

  sim::EngineOptions serve_defaults;
  serve_defaults.pending = pending_;
  Scaler::StrategyBuildContext build_context;
  build_context.pending = pending_;
  build_context.mc_samples = mc_samples_;
  build_context.planning_interval = planning_interval_;
  build_context.seed = seed_;
  return Scaler(std::move(trained), std::move(strategy), std::move(spec),
                build_context, serve_defaults);
}

Result<core::TrainedPipeline> TrainPipeline(
    const workload::Trace& train, const core::PipelineOptions& options) {
  return core::TrainRobustScaler(train, options);
}

Result<sim::Metrics> Evaluate(const workload::Trace& test,
                              sim::Autoscaler* strategy,
                              const sim::EngineOptions& engine) {
  RS_ASSIGN_OR_RETURN(auto result, sim::Simulate(test, strategy, engine));
  return sim::ComputeMetrics(result);
}

}  // namespace rs::api

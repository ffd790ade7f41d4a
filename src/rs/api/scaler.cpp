#include "rs/api/scaler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "rs/persist/persist.hpp"
#include "rs/stats/rng.hpp"
#include "rs/train/training_session.hpp"

namespace rs::api {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Layout version of the SCLR record (independent of the container's
/// persist::kFormatVersion); bump when the section contents change and
/// branch on the read value to migrate old snapshots.
constexpr std::uint32_t kScalerLayerVersion = 1;

void WriteDuration(persist::Writer* writer,
                   const stats::DurationDistribution& d) {
  writer->WriteU8(static_cast<std::uint8_t>(d.kind()));
  writer->WriteDouble(d.param1());
  writer->WriteDouble(d.param2());
}

Result<stats::DurationDistribution> ReadDuration(persist::Reader* reader) {
  RS_ASSIGN_OR_RETURN(const std::uint8_t kind, reader->ReadU8());
  RS_ASSIGN_OR_RETURN(const double p1, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double p2, reader->ReadDouble());
  return stats::DurationDistribution::FromRawParams(kind, p1, p2);
}

}  // namespace

// ---------------------------------------------------------------------------
// Online serving state: the sim::EventLoop that sim::Simulate also drives,
// plus what serving adds on top of it. The loop observer hooks below keep
// the undrained Plan() buffer (with each creation's emission number, so a
// cold start can retract exactly the creation it cancelled), the parity log
// and the lifetime counters. Arrivals and the parity log live in windowed
// buffers that CompactServingState() trims once entries age past the
// strategy's declared history_requirement().
// ---------------------------------------------------------------------------
struct Scaler::Serving : sim::LoopObserver {
  Serving(sim::Autoscaler* strategy, const sim::EngineOptions& options)
      : loop(strategy, options) {}

  void OnDecision(double time, sim::ScalingAction&& action) {
    // The log records the raw action at the callback's event time (the
    // parity contract compares raw actions; charged decision time only
    // shifts execution).
    creations_requested += action.creation_times.size();
    deletions_requested += action.deletions;
    log_times.push_back(time);
    log.push_back(std::move(action));
    ++total_callbacks;
  }
  void OnScheduled(double at, std::uint64_t seq) {
    buffered.creation_times.push_back(at);
    buffered_seqs.push_back(seq);
  }
  void OnDeleted(const sim::LiveInstance& /*instance*/, double /*time*/) {
    // Only deletions the loop applied reach the caller: forwarding the
    // excess would make the caller's fleet delete instances the loop kept.
    ++buffered.deletions;
  }

  sim::EventLoop loop;
  std::size_t cold_starts = 0;
  std::size_t creations_requested = 0;
  std::size_t deletions_requested = 0;
  /// Creations with seq < drain_watermark have been handed to the caller
  /// by Plan().
  std::uint64_t drain_watermark = 0;
  /// Actions emitted since the last Plan() drain, plus the emission number
  /// of each not-yet-drained creation (parallel to buffered.creation_times).
  sim::ScalingAction buffered;
  std::vector<std::uint64_t> buffered_seqs;
  /// Windowed suffix of the parity log (one entry per strategy callback),
  /// with the callback time of each retained entry. `total_callbacks`
  /// counts every callback ever made.
  std::vector<sim::ScalingAction> log;
  std::vector<double> log_times;
  std::size_t total_callbacks = 0;
};

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

// -- Durable state ----------------------------------------------------------

Status Scaler::SaveState(std::ostream& out) const {
  persist::Writer writer;
  RS_RETURN_NOT_OK(SaveStateSection(&writer));
  return writer.Finish(out);
}

Status Scaler::SaveStateSection(persist::Writer* writer) const {
  writer->BeginSection(persist::kTagScaler);
  writer->WriteU32(kScalerLayerVersion);

  // SPEC: the structured strategy spec (bit-exact parameter values; the
  // formatted name string is lossy).
  writer->BeginSection(persist::kTagSpec);
  writer->WriteString(spec_.name);
  writer->WriteU64(spec_.params.size());
  for (const auto& [key, value] : spec_.params) {
    writer->WriteString(key);
    writer->WriteDouble(value);
  }
  writer->EndSection();

  // CTXT: the builder-time factory defaults Build() fed the registry.
  writer->BeginSection(persist::kTagBuildContext);
  WriteDuration(writer, build_context_.pending);
  writer->WriteU64(build_context_.mc_samples);
  writer->WriteDouble(build_context_.planning_interval);
  writer->WriteU64(build_context_.seed);
  writer->EndSection();

  // TRND: the forecast (the only training artifact serving reads) plus the
  // detected period for reports.
  writer->BeginSection(persist::kTagTrained);
  writer->WriteDouble(trained_.forecast.dt());
  writer->WriteDoubleVector(trained_.forecast.rates());
  writer->WriteU64(trained_.period.period);
  writer->WriteDouble(trained_.period.acf_value);
  writer->WriteDouble(trained_.period.p_value);
  writer->EndSection();

  // STRA: the strategy's mutable model state.
  writer->BeginSection(persist::kTagStrategyModel);
  RS_RETURN_NOT_OK(strategy_->SerializeModel(writer));
  writer->EndSection();

  // MIRR: the serving mirror.
  RS_RETURN_NOT_OK(SaveServingState(writer));

  writer->EndSection();
  return Status::OK();
}

Status Scaler::SaveServingState(persist::Writer* writer) const {
  const Serving& s = *serving_;
  const sim::EventLoop& loop = s.loop;
  writer->BeginSection(persist::kTagMirror);

  // Engine options (the clock pointer itself cannot travel; a flag records
  // whether one was injected so restore can demand a replacement).
  WriteDuration(writer, loop.options.pending);
  writer->WriteU64(loop.options.seed);
  writer->WriteBool(loop.options.charge_decision_wall_time);
  writer->WriteDouble(loop.options.creation_latency);
  writer->WriteDouble(loop.options.pending_jitter);
  writer->WriteBool(loop.options.charge_idle_until_horizon);
  writer->WriteBool(loop.options.decision_clock != nullptr);
  writer->WriteDouble(retention_override_);

  // Event-loop position and lifetime counters.
  writer->WriteBool(loop.started);
  writer->WriteDouble(loop.now);
  writer->WriteDouble(loop.next_tick);
  writer->WriteU64(loop.total_arrivals);
  writer->WriteU64(s.cold_starts);
  writer->WriteU64(s.creations_requested);
  writer->WriteU64(s.deletions_requested);
  writer->WriteU64(loop.next_seq);
  writer->WriteU64(s.drain_watermark);
  writer->WriteU64(s.total_callbacks);

  // The loop's RNG (pending-time draws) and the decision clock's logical
  // position (deterministic clocks only; a steady clock exports nothing
  // and resumes on real wall time).
  persist::WriteRngState(writer, loop.rng);
  double clock_time = 0.0;
  std::uint64_t clock_readings = 0;
  const bool has_clock_position =
      loop.clock->ExportPosition(&clock_time, &clock_readings);
  writer->WriteBool(has_clock_position);
  writer->WriteDouble(clock_time);
  writer->WriteU64(clock_readings);

  // Scheduled future creations, drained from a copy in (time, seq) order.
  auto schedule = loop.schedule;
  writer->WriteU64(schedule.size());
  while (!schedule.empty()) {
    const sim::ScheduledCreation top = schedule.top();
    schedule.pop();
    writer->WriteDouble(top.time);
    writer->WriteU64(top.seq);
  }

  // Live instances (ready times, creation order), retained arrival window,
  // the undrained Plan() buffer, and the retained parity-log suffix.
  writer->WriteU64(loop.live.size());
  for (const sim::LiveInstance& instance : loop.live) {
    writer->WriteDouble(instance.ready_time);
  }
  writer->WriteDoubleVector(loop.arrivals);
  writer->WriteDoubleVector(s.buffered.creation_times);
  writer->WriteU64(s.buffered.deletions);
  writer->WriteU64Vector(s.buffered_seqs);
  writer->WriteU64(s.log.size());
  for (const sim::ScalingAction& action : s.log) {
    writer->WriteDoubleVector(action.creation_times);
    writer->WriteU64(action.deletions);
  }
  writer->WriteDoubleVector(s.log_times);

  writer->EndSection();
  return Status::OK();
}

Status Scaler::LoadServingState(persist::Reader* reader,
                                sim::DecisionClock* restore_clock) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagMirror));

  sim::EngineOptions options;
  RS_ASSIGN_OR_RETURN(options.pending, ReadDuration(reader));
  RS_ASSIGN_OR_RETURN(options.seed, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(options.charge_decision_wall_time, reader->ReadBool());
  RS_ASSIGN_OR_RETURN(options.creation_latency, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(options.pending_jitter, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(options.charge_idle_until_horizon, reader->ReadBool());
  RS_ASSIGN_OR_RETURN(const bool had_injected_clock, reader->ReadBool());
  if (had_injected_clock && restore_clock == nullptr) {
    return Status::Invalid(
        "snapshot was taken with an injected DecisionClock; pass a "
        "replacement via ScalerRestoreOptions::decision_clock (restoring "
        "onto wall time would silently break the deterministic "
        "continuation)");
  }
  options.decision_clock = restore_clock;
  RS_RETURN_NOT_OK(sim::ValidateEngineOptions(options));
  RS_ASSIGN_OR_RETURN(const double retention, reader->ReadDouble());
  if (std::isnan(retention) || retention < 0.0) {
    return Status::Invalid(
        "snapshot carries a negative or NaN history-retention override");
  }
  retention_override_ = retention;

  serving_ = std::make_unique<Serving>(strategy_.get(), options);
  Serving& s = *serving_;
  sim::EventLoop& loop = s.loop;
  RS_ASSIGN_OR_RETURN(loop.started, reader->ReadBool());
  RS_ASSIGN_OR_RETURN(loop.now, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(loop.next_tick, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const std::uint64_t total_arrivals, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t cold_starts, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t creations, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t deletions, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(loop.next_seq, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(s.drain_watermark, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t callbacks, reader->ReadU64());
  loop.total_arrivals = static_cast<std::size_t>(total_arrivals);
  s.cold_starts = static_cast<std::size_t>(cold_starts);
  s.creations_requested = static_cast<std::size_t>(creations);
  s.deletions_requested = static_cast<std::size_t>(deletions);
  s.total_callbacks = static_cast<std::size_t>(callbacks);

  RS_RETURN_NOT_OK(persist::ReadRngState(reader, &loop.rng));
  RS_ASSIGN_OR_RETURN(const bool has_clock_position, reader->ReadBool());
  RS_ASSIGN_OR_RETURN(const double clock_time, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const std::uint64_t clock_readings, reader->ReadU64());
  if (has_clock_position) {
    if (restore_clock == nullptr) {
      return Status::Invalid(
          "snapshot carries a decision-clock position but no clock flag; "
          "the file is corrupt");
    }
    RS_RETURN_NOT_OK(
        restore_clock->ImportPosition(clock_time, clock_readings));
  }

  RS_ASSIGN_OR_RETURN(const std::uint64_t schedule_size, reader->ReadU64());
  for (std::uint64_t i = 0; i < schedule_size; ++i) {
    sim::ScheduledCreation entry;
    RS_ASSIGN_OR_RETURN(entry.time, reader->ReadDouble());
    RS_ASSIGN_OR_RETURN(entry.seq, reader->ReadU64());
    loop.schedule.push(entry);
  }

  RS_ASSIGN_OR_RETURN(const std::uint64_t live_size, reader->ReadU64());
  for (std::uint64_t i = 0; i < live_size; ++i) {
    sim::LiveInstance instance;
    RS_ASSIGN_OR_RETURN(instance.ready_time, reader->ReadDouble());
    loop.live.push_back(instance);
  }
  RS_RETURN_NOT_OK(reader->ReadDoubleVector(&loop.arrivals));
  RS_RETURN_NOT_OK(reader->ReadDoubleVector(&s.buffered.creation_times));
  RS_ASSIGN_OR_RETURN(const std::uint64_t buffered_deletions,
                      reader->ReadU64());
  s.buffered.deletions = static_cast<std::size_t>(buffered_deletions);
  RS_RETURN_NOT_OK(reader->ReadU64Vector(&s.buffered_seqs));
  if (s.buffered_seqs.size() != s.buffered.creation_times.size()) {
    return Status::Invalid(
        "snapshot's undrained action buffer is inconsistent (creation "
        "times and emission numbers differ in length)");
  }

  RS_ASSIGN_OR_RETURN(const std::uint64_t log_size, reader->ReadU64());
  for (std::uint64_t i = 0; i < log_size; ++i) {
    sim::ScalingAction action;
    RS_RETURN_NOT_OK(reader->ReadDoubleVector(&action.creation_times));
    RS_ASSIGN_OR_RETURN(const std::uint64_t action_deletions,
                        reader->ReadU64());
    action.deletions = static_cast<std::size_t>(action_deletions);
    s.log.push_back(std::move(action));
  }
  RS_RETURN_NOT_OK(reader->ReadDoubleVector(&s.log_times));
  if (s.log_times.size() != s.log.size()) {
    return Status::Invalid(
        "snapshot's parity log is inconsistent (entries and timestamps "
        "differ in length)");
  }

  return reader->ExitSection();
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

Result<Scaler> ScalerBuilder::RestoreState(std::istream& in,
                                           const ScalerRestoreOptions& options) {
  RS_ASSIGN_OR_RETURN(persist::Reader reader, persist::Reader::FromStream(in));
  return RestoreStateSection(&reader, options);
}

Result<Scaler> ScalerBuilder::RestoreStateSection(
    persist::Reader* reader, const ScalerRestoreOptions& options) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagScaler));
  std::uint32_t layer_version = 0;
  RS_RETURN_NOT_OK(reader->ReadLayerVersion("Scaler snapshot record",
                                            kScalerLayerVersion,
                                            &layer_version));

  // SPEC: the structured strategy spec.
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagSpec));
  StrategySpec spec;
  RS_ASSIGN_OR_RETURN(spec.name, reader->ReadString());
  RS_ASSIGN_OR_RETURN(const std::uint64_t param_count, reader->ReadU64());
  for (std::uint64_t i = 0; i < param_count; ++i) {
    RS_ASSIGN_OR_RETURN(std::string key, reader->ReadString());
    RS_ASSIGN_OR_RETURN(const double value, reader->ReadDouble());
    spec.params[std::move(key)] = value;
  }
  RS_RETURN_NOT_OK(reader->ExitSection());

  // CTXT: factory defaults.
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagBuildContext));
  Scaler::StrategyBuildContext build_context;
  RS_ASSIGN_OR_RETURN(build_context.pending, ReadDuration(reader));
  RS_ASSIGN_OR_RETURN(const std::uint64_t mc_samples, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(build_context.planning_interval, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(build_context.seed, reader->ReadU64());
  if (mc_samples == 0 || !(build_context.planning_interval > 0.0)) {
    return Status::Invalid(
        "snapshot carries out-of-domain strategy build defaults "
        "(mc_samples must be >= 1, planning interval > 0 s)");
  }
  build_context.mc_samples = static_cast<std::size_t>(mc_samples);
  RS_RETURN_NOT_OK(reader->ExitSection());

  // TRND: the forecast. Make() re-runs the full domain validation.
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagTrained));
  core::TrainedPipeline trained;
  RS_ASSIGN_OR_RETURN(const double dt, reader->ReadDouble());
  std::vector<double> rates;
  RS_RETURN_NOT_OK(reader->ReadDoubleVector(&rates));
  RS_ASSIGN_OR_RETURN(
      trained.forecast,
      workload::PiecewiseConstantIntensity::Make(std::move(rates), dt));
  RS_ASSIGN_OR_RETURN(const std::uint64_t detected_period, reader->ReadU64());
  trained.period.period = static_cast<std::size_t>(detected_period);
  RS_ASSIGN_OR_RETURN(trained.period.acf_value, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(trained.period.p_value, reader->ReadDouble());
  RS_RETURN_NOT_OK(reader->ExitSection());

  // Rebuild the strategy through the registry (re-running every factory
  // validation), then overlay the snapshot's mutable model state.
  StrategyContext context;
  context.forecast = &trained.forecast;
  context.pending = build_context.pending;
  context.mc_samples = build_context.mc_samples;
  context.planning_interval = build_context.planning_interval;
  context.seed = build_context.seed;
  RS_ASSIGN_OR_RETURN(auto strategy,
                      StrategyRegistry::Global().Create(spec, context));
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagStrategyModel));
  RS_RETURN_NOT_OK(strategy->DeserializeModel(reader));
  RS_RETURN_NOT_OK(reader->ExitSection());

  // The policies copy the forecast at construction, so moving `trained`
  // into the Scaler afterwards is safe.
  sim::EngineOptions serve_defaults;
  serve_defaults.pending = build_context.pending;
  Scaler scaler(std::move(trained), std::move(strategy), std::move(spec),
                build_context, serve_defaults);
  RS_RETURN_NOT_OK(
      scaler.LoadServingState(reader, options.decision_clock));
  RS_RETURN_NOT_OK(reader->ExitSection());
  return scaler;
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

/// \file scaler_persist.cpp
/// \brief rs::persist records of a Scaler (SCLR and its SPEC, CTXT, TRND,
///        STRA and MIRR sections), their restore and their printer. Kept
///        out of scaler.cpp: inlined there, the field lists used up the
///        growth GCC's inliner allows one translation unit, and Observe and
///        Plan lost inlining.
#include <cmath>
#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "rs/api/scaler.hpp"
#include "rs/api/scaler_serving.hpp"
#include "rs/baselines/adaptive_backup_pool.hpp"
#include "rs/baselines/backup_pool.hpp"
#include "rs/core/sequential_scaler.hpp"
#include "rs/persist/fields.hpp"

namespace rs::workload {

// A forecast is one field of the TRND record: its bin width, then its
// rates. Decoding re-runs Make's domain validation.
static void Put(persist::Writer* w, const PiecewiseConstantIntensity& f) {
  w->WriteDouble(f.dt());
  w->WriteDoubleVector(f.rates());
}

static void Get(persist::Reader* r, PiecewiseConstantIntensity* f,
                Status* error) {
  double dt = 0.0;
  std::vector<double> rates;
  persist::Decoder io(r);
  io("dt", dt);
  io("rates", rates);
  if (!io.ok()) {
    *error = io.status();
    return;
  }
  persist::Store(PiecewiseConstantIntensity::Make(std::move(rates), dt), f,
                 error);
}

static void Show(std::ostream& os, const PiecewiseConstantIntensity& f) {
  os << f.rates().size() << " bins x " << f.dt() << " s";
}

}  // namespace rs::workload

namespace rs::api {

namespace {

/// Layout version of the SCLR record (independent of the container's
/// persist::kFormatVersion); bump when the section contents change and
/// branch on the read value to migrate old snapshots.
constexpr std::uint32_t kScalerLayerVersion = 1;

/// The head of the SCLR record: its layout version, then SPEC (the
/// structured strategy spec: bit-exact parameter values, where the
/// formatted name string is lossy), CTXT (the builder-time factory
/// defaults Build() fed the registry) and TRND (the forecast, the only
/// training artifact serving reads, plus the detected period for reports).
/// The strategy's model record and the serving mirror follow.
template <class Io, class Spec, class Context, class Trained>
Status ScalerHeadFields(Io& io, Spec& spec, Context& context,
                        Trained& trained) {
  io.Version("Scaler snapshot record", kScalerLayerVersion);
  io.Section("strategy spec", persist::kTagSpec, [&] {
    io("name", spec.name);
    io("params", spec.params);
  });
  io.Section("build defaults", persist::kTagBuildContext, [&] {
    io("pending", context.pending);
    io("mc_samples", context.mc_samples);
    io("planning_interval", context.planning_interval);
    io("seed", context.seed);
  });
  io.Section("trained model", persist::kTagTrained, [&] {
    io("forecast", trained.forecast);
    io("period", trained.period.period);
    io("acf_value", trained.period.acf_value);
    io("p_value", trained.period.p_value);
  });
  return io.status();
}

/// What the MIRR record copies out of the serving mirror: its scalars, and
/// the schedule, which a priority queue yields in order only by popping.
struct MirrorRecord {
  /// The clock pointer cannot travel; `injected_clock` records whether one
  /// was set, so restore can demand a replacement.
  sim::EngineOptions options;
  bool injected_clock = false;
  double retention_override = 0.0;
  // Event-loop position and lifetime counters.
  bool started = false;
  double now = 0.0;
  double next_tick = 0.0;
  std::size_t total_arrivals = 0;
  std::size_t cold_starts = 0;
  std::size_t creations_requested = 0;
  std::size_t deletions_requested = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t drain_watermark = 0;
  std::size_t total_callbacks = 0;
  /// The loop's RNG (pending-time draws) and the decision clock's logical
  /// position (deterministic clocks only; a steady clock exports nothing
  /// and resumes on real wall time).
  stats::Rng rng;
  bool has_clock_position = false;
  double clock_time = 0.0;
  std::uint64_t clock_readings = 0;
  /// Scheduled future creations, earliest first.
  std::vector<sim::ScheduledCreation> schedule;
};

/// The MIRR record: `m`'s scalars and schedule, then the live set (ready
/// times, creation order), the retained arrival window, the undrained
/// Plan() buffer and the retained parity-log suffix, read and written in
/// place in the serving mirror `s`.
template <class Io, class Rec, class Srv>
Status MirrorFields(Io& io, Rec& m, Srv& s) {
  io("pending", m.options.pending);
  io("seed", m.options.seed);
  io("charge_decision_wall_time", m.options.charge_decision_wall_time);
  io("creation_latency", m.options.creation_latency);
  io("pending_jitter", m.options.pending_jitter);
  io("charge_idle_until_horizon", m.options.charge_idle_until_horizon);
  io("injected_clock", m.injected_clock);
  io("retention_override", m.retention_override);
  io("started", m.started);
  io("now", m.now);
  io("next_tick", m.next_tick);
  io("arrivals", m.total_arrivals);
  io("cold_starts", m.cold_starts);
  io("creations_requested", m.creations_requested);
  io("deletions_requested", m.deletions_requested);
  io("next_seq", m.next_seq);
  io("drain_watermark", m.drain_watermark);
  io("callbacks", m.total_callbacks);
  io("rng", m.rng);
  io("clock_position", m.has_clock_position);
  io("clock_time", m.clock_time);
  io("clock_readings", m.clock_readings);
  io.Each("schedule", m.schedule, [](auto& field, auto& creation) {
    field("time", creation.time);
    field("seq", creation.seq);
  });
  io.Each("live", s.loop.live, [](auto& field, auto& instance) {
    field("ready_time", instance.ready_time);
  });
  io("arrival_window", s.loop.arrivals);
  io("buffered_creation_times", s.buffered.creation_times);
  io("buffered_deletions", s.buffered.deletions);
  io("buffered_seqs", s.buffered_seqs);
  io.Each("log", s.log, [](auto& field, auto& action) {
    field("creation_times", action.creation_times);
    field("deletions", action.deletions);
  });
  io("log_times", s.log_times);
  return io.status();
}

/// STRA holds the strategy's own model record: the built-in strategies
/// print theirs, any other prints as its tag and size.
Status DescribeStrategyModel(persist::Printer* printer) {
  persist::Reader* reader = printer->reader();
  if (reader->remaining() == 0) return Status::OK();
  RS_ASSIGN_OR_RETURN(const std::uint32_t tag, reader->PeekSectionTag());
  switch (tag) {
    case persist::kTagRobustModel:
      return core::RobustScalerPolicy::DescribeModel(printer);
    case persist::kTagBackupPoolModel:
      return baseline::BackupPool::DescribeModel(printer);
    case persist::kTagAdaptiveModel:
      return baseline::AdaptiveBackupPool::DescribeModel(printer);
    default:
      printer->Line("model") << persist::TagToString(tag) << " ("
                             << reader->remaining() << " bytes)\n";
      return Status::OK();
  }
}

}  // namespace

// -- Durable state ----------------------------------------------------------

Status Scaler::SaveState(std::ostream& out) const {
  persist::Writer writer;
  RS_RETURN_NOT_OK(SaveStateSection(&writer));
  return writer.Finish(out);
}

Status Scaler::SaveStateSection(persist::Writer* writer) const {
  writer->BeginSection(persist::kTagScaler);
  persist::Encoder io(writer);
  ScalerHeadFields(io, spec_, build_context_, trained_);

  // STRA: the strategy's mutable model state.
  writer->BeginSection(persist::kTagStrategyModel);
  RS_RETURN_NOT_OK(strategy_->SerializeModel(writer));
  writer->EndSection();

  // MIRR: the serving mirror.
  RS_RETURN_NOT_OK(SaveServingState(writer));

  writer->EndSection();
  return Status::OK();
}

Status Scaler::DescribeState(persist::Printer* printer) {
  printer->Section("scaler", persist::kTagScaler, [printer] {
    StrategySpec spec;
    StrategyBuildContext build_context;
    core::TrainedPipeline trained;
    ScalerHeadFields(*printer, spec, build_context, trained);
    printer->Section("strategy model", persist::kTagStrategyModel, [printer] {
      printer->Latch(DescribeStrategyModel(printer));
    });
    MirrorRecord mirror;
    Serving serving(nullptr, sim::EngineOptions{});
    printer->Section("serving mirror", persist::kTagMirror,
                     [&] { MirrorFields(*printer, mirror, serving); });
  });
  return printer->status();
}

Status Scaler::SaveServingState(persist::Writer* writer) const {
  const Serving& s = *serving_;
  const sim::EventLoop& loop = s.loop;
  MirrorRecord m;
  m.options = loop.options;
  m.injected_clock = loop.options.decision_clock != nullptr;
  m.retention_override = retention_override_;
  m.started = loop.started;
  m.now = loop.now;
  m.next_tick = loop.next_tick;
  m.total_arrivals = loop.total_arrivals;
  m.cold_starts = s.cold_starts;
  m.creations_requested = s.creations_requested;
  m.deletions_requested = s.deletions_requested;
  m.next_seq = loop.next_seq;
  m.drain_watermark = s.drain_watermark;
  m.total_callbacks = s.total_callbacks;
  m.rng = loop.rng;
  m.has_clock_position =
      loop.clock->ExportPosition(&m.clock_time, &m.clock_readings);
  m.schedule.reserve(loop.schedule.size());
  for (auto queue = loop.schedule; !queue.empty(); queue.pop()) {
    m.schedule.push_back(queue.top());
  }
  writer->BeginSection(persist::kTagMirror);
  persist::Encoder io(writer);
  MirrorFields(io, m, s);
  writer->EndSection();
  return Status::OK();
}

Status Scaler::LoadServingState(persist::Reader* reader,
                                sim::DecisionClock* restore_clock) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagMirror));
  // The tail decodes into a mirror on default options; the restored mirror,
  // built on the recorded options, takes its containers over.
  MirrorRecord m;
  Serving decoded(strategy_.get(), sim::EngineOptions{});
  persist::Decoder io(reader);
  RS_RETURN_NOT_OK(MirrorFields(io, m, decoded));
  if (m.injected_clock && restore_clock == nullptr) {
    return Status::Invalid(
        "snapshot was taken with an injected DecisionClock; pass a "
        "replacement via ScalerRestoreOptions::decision_clock (restoring "
        "onto wall time would silently break the deterministic "
        "continuation)");
  }
  m.options.decision_clock = restore_clock;
  RS_RETURN_NOT_OK(sim::ValidateEngineOptions(m.options));
  if (std::isnan(m.retention_override) || m.retention_override < 0.0) {
    return Status::Invalid(
        "snapshot carries a negative or NaN history-retention override");
  }
  if (decoded.buffered_seqs.size() !=
      decoded.buffered.creation_times.size()) {
    return Status::Invalid(
        "snapshot's undrained action buffer is inconsistent (creation "
        "times and emission numbers differ in length)");
  }
  if (decoded.log_times.size() != decoded.log.size()) {
    return Status::Invalid(
        "snapshot's parity log is inconsistent (entries and timestamps "
        "differ in length)");
  }
  retention_override_ = m.retention_override;

  serving_ = std::make_unique<Serving>(strategy_.get(), m.options);
  Serving& s = *serving_;
  sim::EventLoop& loop = s.loop;
  loop.started = m.started;
  loop.now = m.now;
  loop.next_tick = m.next_tick;
  loop.total_arrivals = m.total_arrivals;
  s.cold_starts = m.cold_starts;
  s.creations_requested = m.creations_requested;
  s.deletions_requested = m.deletions_requested;
  loop.next_seq = m.next_seq;
  s.drain_watermark = m.drain_watermark;
  s.total_callbacks = m.total_callbacks;
  loop.rng = m.rng;
  if (m.has_clock_position) {
    if (restore_clock == nullptr) {
      return Status::Invalid(
          "snapshot carries a decision-clock position but no clock flag; "
          "the file is corrupt");
    }
    RS_RETURN_NOT_OK(
        restore_clock->ImportPosition(m.clock_time, m.clock_readings));
  }
  loop.schedule = decltype(loop.schedule)(std::greater<>(),
                                          std::move(m.schedule));
  loop.live = std::move(decoded.loop.live);
  loop.arrivals = std::move(decoded.loop.arrivals);
  s.buffered = std::move(decoded.buffered);
  s.buffered_seqs = std::move(decoded.buffered_seqs);
  s.log = std::move(decoded.log);
  s.log_times = std::move(decoded.log_times);
  return reader->ExitSection();
}

Result<Scaler> ScalerBuilder::RestoreState(std::istream& in,
                                           const ScalerRestoreOptions& options) {
  RS_ASSIGN_OR_RETURN(persist::Reader reader, persist::Reader::FromStream(in));
  return RestoreStateSection(&reader, options);
}

Result<Scaler> ScalerBuilder::RestoreStateSection(
    persist::Reader* reader, const ScalerRestoreOptions& options) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagScaler));
  StrategySpec spec;
  Scaler::StrategyBuildContext build_context;
  core::TrainedPipeline trained;
  persist::Decoder io(reader);
  RS_RETURN_NOT_OK(ScalerHeadFields(io, spec, build_context, trained));
  if (build_context.mc_samples == 0 ||
      !(build_context.planning_interval > 0.0)) {
    return Status::Invalid(
        "snapshot carries out-of-domain strategy build defaults "
        "(mc_samples must be >= 1, planning interval > 0 s)");
  }

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

}  // namespace rs::api

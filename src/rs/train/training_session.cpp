#include "rs/train/training_session.hpp"

#include <cmath>
#include <utility>

#include "rs/persist/fields.hpp"

namespace rs::train {

namespace {

/// Session payload layout version inside kTagTrainSession. v2 appends the
/// previous fit's final ADMM penalty ρ; a v1 payload loads without one, so
/// its first refit starts from the configured ρ.
constexpr std::uint32_t kSessionVersion = 2;

}  // namespace

/// The TSES record.
template <class Io, class Rec>
Status SessionFields(Io& io, Rec& s) {
  io.Section("training session", persist::kTagTrainSession, [&] {
    const std::uint32_t version =
        io.Version("TrainingSession snapshot", kSessionVersion);
    io("start", s.counts_.start);
    io("dt", s.counts_.dt);
    io("counts", s.counts_.counts);
    io("warm_start", s.warm_);
    io("fits", s.fits_);
    io("last_iterations", s.last_iterations_);
    if (version >= 2) io("warm_rho", s.warm_rho_);
  });
  return io.status();
}

Result<TrainingSession> TrainingSession::FromTrace(
    const workload::Trace& trace, const core::PipelineOptions& options) {
  if (trace.horizon() <= 0.0) {
    return Status::Invalid("TrainingSession: empty training horizon");
  }
  if (!(options.dt > 0.0)) {
    return Status::Invalid("TrainingSession: dt must be > 0");
  }
  RS_ASSIGN_OR_RETURN(auto counts,
                      ts::AggregateEvents(trace.ArrivalTimes(), options.dt,
                                          trace.horizon()));
  TrainingSession session;
  session.options_ = options;
  session.counts_ = std::move(counts);
  return session;
}

TrainingSession TrainingSession::FromTrained(
    const core::TrainedPipeline& trained,
    const core::PipelineOptions& options) {
  TrainingSession session;
  session.options_ = options;
  if (!trained.counts.counts.empty()) {
    session.counts_ = trained.counts;
    session.warm_ = trained.model.log_intensity();
    session.warm_rho_ = trained.admm_info.rho;
    session.fits_ = 1;
    session.last_iterations_ = trained.admm_info.iterations;
  } else {
    // Restored pipelines carry only the forecast; start an empty window at
    // the trained bin width (falls back to the policy dt when absent).
    session.counts_.start = 0.0;
    session.counts_.dt =
        trained.counts.dt > 0.0 ? trained.counts.dt : options.dt;
  }
  if (!(session.counts_.dt > 0.0)) session.counts_.dt = 60.0;
  return session;
}

Status TrainingSession::AppendArrivals(const std::vector<double>& times,
                                       double up_to) {
  RS_RETURN_NOT_OK(ExtendTo(up_to));
  const double start = counts_.start;
  const double dt = counts_.dt;
  const std::size_t bins = counts_.size();
  for (double t : times) {
    if (!std::isfinite(t) || t < start) continue;
    const auto bin = static_cast<std::size_t>((t - start) / dt);
    if (bin >= bins) continue;  // At/after up_to: not yet closed.
    counts_.counts[bin] += 1.0;
  }
  return Status::OK();
}

Status TrainingSession::AppendArrival(double time) {
  if (!std::isfinite(time)) {
    return Status::Invalid("TrainingSession: arrival time must be finite");
  }
  if (time < counts_.start) return Status::OK();
  const auto bin =
      static_cast<std::size_t>((time - counts_.start) / counts_.dt);
  if (bin >= counts_.size()) counts_.counts.resize(bin + 1, 0.0);
  counts_.counts[bin] += 1.0;
  return Status::OK();
}

Status TrainingSession::ExtendTo(double up_to) {
  if (!std::isfinite(up_to)) {
    return Status::Invalid("TrainingSession: up_to must be finite");
  }
  if (up_to <= window_end()) return Status::OK();
  const auto bins = static_cast<std::size_t>(
      std::ceil((up_to - counts_.start) / counts_.dt));
  if (bins > counts_.size()) counts_.counts.resize(bins, 0.0);
  return Status::OK();
}

void TrainingSession::TruncateToCompleteBins(double up_to) {
  if (!std::isfinite(up_to)) return;
  const double span = up_to - counts_.start;
  const std::size_t complete =
      span <= 0.0 ? 0 : static_cast<std::size_t>(std::floor(span / counts_.dt));
  if (complete < counts_.size()) counts_.counts.resize(complete);
}

Result<core::TrainedPipeline> TrainingSession::Fit() {
  RS_ASSIGN_OR_RETURN(
      auto trained,
      core::TrainRobustScalerFromCounts(counts_, options_, nullptr));
  AdoptFit(trained);
  return trained;
}

Result<core::TrainedPipeline> TrainingSession::Refit() {
  if (warm_.empty()) return Fit();
  // Warm start both the iterate and the balanced penalty: restarting ρ
  // from its configured value makes residual balancing redo the climb the
  // previous fit already made.
  core::PipelineOptions options = options_;
  if (warm_rho_ > 0.0) options.admm.rho = warm_rho_;
  RS_ASSIGN_OR_RETURN(
      auto trained,
      core::TrainRobustScalerFromCounts(counts_, options, &warm_));
  AdoptFit(trained);
  return trained;
}

void TrainingSession::AdoptFit(const core::TrainedPipeline& trained) {
  warm_ = trained.model.log_intensity();
  warm_rho_ = trained.admm_info.rho;
  ++fits_;
  last_iterations_ = trained.admm_info.iterations;
}

void TrainingSession::Serialize(persist::Writer* writer) const {
  persist::Encoder io(writer);
  SessionFields(io, *this);
}

Result<TrainingSession> TrainingSession::Deserialize(
    persist::Reader* reader, const core::PipelineOptions& options) {
  TrainingSession session;
  session.options_ = options;
  persist::Decoder io(reader);
  RS_RETURN_NOT_OK(SessionFields(io, session));
  // AppendArrival casts (t - start) / dt to a bin index: both must be
  // finite for that to be defined.
  const ts::CountSeries& counts = session.counts_;
  if (!std::isfinite(counts.start) || !std::isfinite(counts.dt) ||
      !(counts.dt > 0.0)) {
    return Status::Invalid(
        "TrainingSession: snapshot start and dt must be finite, dt > 0");
  }
  return session;
}

Status TrainingSession::Describe(persist::Printer* printer) {
  TrainingSession scratch;
  return SessionFields(*printer, scratch);
}

}  // namespace rs::train

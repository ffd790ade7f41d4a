#include "rs/train/training_session.hpp"

#include <cmath>
#include <utility>

namespace rs::train {

namespace {

/// Session payload layout version inside kTagTrainSession. v2 appends the
/// previous fit's final ADMM penalty ρ; a v1 payload loads without one, so
/// its first refit starts from the configured ρ.
constexpr std::uint32_t kSessionVersion = 2;

}  // namespace

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
  writer->BeginSection(persist::kTagTrainSession);
  writer->WriteU32(kSessionVersion);
  writer->WriteDouble(counts_.start);
  writer->WriteDouble(counts_.dt);
  writer->WriteDoubleVector(counts_.counts);
  writer->WriteDoubleVector(warm_);
  writer->WriteU64(fits_);
  writer->WriteU64(last_iterations_);
  writer->WriteDouble(warm_rho_);
  writer->EndSection();
}

Result<TrainingSession> TrainingSession::Deserialize(
    persist::Reader* reader, const core::PipelineOptions& options) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagTrainSession));
  std::uint32_t version = 0;
  RS_RETURN_NOT_OK(reader->ReadLayerVersion("TrainingSession snapshot",
                                            kSessionVersion, &version));
  TrainingSession session;
  session.options_ = options;
  RS_ASSIGN_OR_RETURN(session.counts_.start, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(session.counts_.dt, reader->ReadDouble());
  RS_RETURN_NOT_OK(reader->ReadDoubleVector(&session.counts_.counts));
  RS_RETURN_NOT_OK(reader->ReadDoubleVector(&session.warm_));
  RS_ASSIGN_OR_RETURN(session.fits_, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(session.last_iterations_, reader->ReadU64());
  if (version >= 2) {
    RS_ASSIGN_OR_RETURN(session.warm_rho_, reader->ReadDouble());
  }
  RS_RETURN_NOT_OK(reader->ExitSection());
  if (!(session.counts_.dt > 0.0)) {
    return Status::Invalid("TrainingSession: snapshot dt must be > 0");
  }
  return session;
}

}  // namespace rs::train

/// \file training_session.hpp
/// \brief The resumable training service behind ScalerBuilder and the
///        fleet's background retrain queue.
///
/// TrainRobustScaler is a one-shot batch: bin a trace, fit, forecast,
/// forget. A TrainingSession keeps the binned window and the fitted
/// log-intensity iterate and the final ADMM penalty ρ alive between fits,
/// so a retrain after new arrivals warm-starts ADMM from the previous
/// solution (see AdmmOptions::warm_start) instead of from the smoothed cold
/// start. Sessions are plain values: copyable, so a
/// background retrain job can capture a point-in-time copy while the live
/// session keeps accumulating arrivals, and serializable, so they survive
/// rs::persist snapshot/restore (kTagTrainSession).
#pragma once

#include <vector>

#include "rs/core/pipeline.hpp"
#include "rs/persist/persist.hpp"
#include "rs/timeseries/aggregate.hpp"
#include "rs/workload/trace.hpp"

namespace rs::train {

/// \brief A restartable training window + warm-start state.
///
/// Cold contract: on the same counts, `Fit()` is byte-identical to
/// `TrainRobustScaler` on the trace that produced them (same modules, same
/// order of floating-point operations). `Refit()` differs only in the ADMM
/// starting iterate and penalty, which change the iteration count, not the
/// contract: both stop on the same scaled tolerances.
class TrainingSession {
 public:
  TrainingSession() = default;

  /// Bins `trace` at `options.dt` over its horizon (module 1a) and opens a
  /// session on the result.
  static Result<TrainingSession> FromTrace(
      const workload::Trace& trace, const core::PipelineOptions& options);

  /// Opens a session seeded from a previous fit: the trained counts become
  /// the window and the fitted log-intensity becomes the warm start. A
  /// pipeline restored from a snapshot carries no counts (the TRND section
  /// persists only the forecast); such a session starts empty and its first
  /// fit is cold — by design, not an error.
  static TrainingSession FromTrained(const core::TrainedPipeline& trained,
                                     const core::PipelineOptions& options);

  /// Appends arrival times and closes (possibly empty) bins so the window
  /// covers [start, up_to). Events before the window start or at/after
  /// `up_to` are dropped; events landing in already-closed bins still
  /// count (the serving mirror feeds in order, so this only happens for
  /// the partial tail bin).
  Status AppendArrivals(const std::vector<double>& times, double up_to);

  /// Single-event append for the serving hot path: grows the window just
  /// far enough to contain `time`'s bin and counts the event there. No
  /// allocation beyond the occasional window growth.
  Status AppendArrival(double time);

  /// Closes empty bins so the window covers [start, up_to).
  Status ExtendTo(double up_to);

  /// Drops trailing bins whose right edge lies after `up_to`, leaving only
  /// bins fully contained in [start, up_to). A retrain job runs this on its
  /// point-in-time copy so the fit never sees a partially-filled tail bin
  /// (which would bias the forecast's boundary downward).
  void TruncateToCompleteBins(double up_to);

  /// Cold fit of the current window (ignores the warm-start iterate).
  Result<core::TrainedPipeline> Fit();

  /// Warm fit: starts ADMM from the previous fit's iterate and final ρ
  /// when one exists (falls back to a cold fit otherwise). Updates both on
  /// success.
  Result<core::TrainedPipeline> Refit();

  /// Adopts an externally produced fit's iterate as the new warm start —
  /// how the live session catches up after a background job (which fitted
  /// a point-in-time copy) lands its result.
  void AdoptFit(const core::TrainedPipeline& trained);

  /// End of the covered window in trace time: start + bins·dt.
  double window_end() const {
    return counts_.start + static_cast<double>(counts_.size()) * counts_.dt;
  }
  std::size_t bins() const { return counts_.size(); }
  bool has_warm_start() const { return !warm_.empty(); }
  std::size_t fits() const { return fits_; }
  /// ADMM iterations of the most recent Fit/Refit (0 before the first).
  std::size_t last_iterations() const { return last_iterations_; }
  const core::PipelineOptions& options() const { return options_; }
  /// Rebinds the fit options (e.g. after a restored session joins a fleet
  /// whose freshness policy differs from the one it was saved under).
  void set_options(const core::PipelineOptions& options) { options_ = options; }

  /// Writes a kTagTrainSession section (window + warm start + counters).
  void Serialize(persist::Writer* writer) const;

  /// Reads a kTagTrainSession section. Pipeline options are not persisted
  /// (they live with the owner's policy); the caller supplies them.
  static Result<TrainingSession> Deserialize(
      persist::Reader* reader, const core::PipelineOptions& options);

  /// Prints a kTagTrainSession section field by field (rs_snapshot).
  static Status Describe(persist::Printer* printer);

 private:
  template <class Io, class Rec>
  friend Status SessionFields(Io& io, Rec& session);

  core::PipelineOptions options_;
  ts::CountSeries counts_;
  std::vector<double> warm_;  ///< Previous fit's log-intensity iterate.
  double warm_rho_ = 0.0;     ///< Previous fit's final ρ (0 = none).
  std::uint64_t fits_ = 0;
  std::uint64_t last_iterations_ = 0;
};

}  // namespace rs::train

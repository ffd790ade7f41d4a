/// \file drift.hpp
/// \brief Streaming drift detection over a served arrival stream: two-sided
///        CUSUM (Page–Hinkley) on binned rates against the trained
///        forecast, plus a periodicity-consistency check against the
///        trained phase profile.
///
/// The detector is the trigger of the fleet's freshness loop: it watches
/// the same arrival stream the serving mirror feeds, compares each closed
/// Δt bin against the rate the trained model predicted for that bin, and
/// latches a DriftKind once the cumulative evidence crosses the policy
/// threshold. State is tiny (two CUSUM scores + one period of ring buffer)
/// and serializable, so a restored snapshot resumes the exact same
/// statistics bit-for-bit (kTagDriftDetector).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rs/common/status.hpp"
#include "rs/persist/persist.hpp"

namespace rs::ts {

/// What the detector latched (kNone while the stream still matches).
enum class DriftKind : std::uint8_t {
  kNone = 0,
  /// Cumulative normalized rate residual crossed the CUSUM threshold —
  /// the traffic level left the trained regime.
  kRateShift = 1,
  /// The observed phase profile stopped correlating with the trained
  /// one — the periodic shape (not just the level) changed.
  kPeriodicityBreak = 2,
};

const char* DriftKindToString(DriftKind kind);

/// Policy knobs of the detector (per-tenant geometry — bin width, expected
/// rates, period — is supplied to Make(), not here, so one options struct
/// serves a whole fleet).
struct DriftDetectorOptions {
  /// Closed bins to observe before the detector may fire. Suppresses
  /// cold-start transients right after training or a swap.
  std::size_t warmup_bins = 5;
  /// Rate floor (events/s) for the residual normalization, so near-silent
  /// reference bins do not blow up x = (obs − exp) / max(exp, min_rate).
  double min_rate = 1e-3;
  /// CUSUM drift allowance δ in normalized-residual units: per-bin slack
  /// subtracted before accumulation. Larger = more tolerant of noise.
  double delta = 0.25;
  /// CUSUM firing threshold h in normalized-residual units.
  double threshold = 8.0;
  /// Reference level for the periodicity check: the Pearson correlation
  /// between the last observed period and the trained phase profile is
  /// expected to stay above this while the shape holds.
  double min_profile_correlation = 0.4;
  /// Firing threshold of the leaky CUSUM on the correlation shortfall
  /// (min_profile_correlation − corr, accumulated per closed bin, floored
  /// at 0). A sampling dip contributes a sliver and is paid back by the
  /// next healthy bin; a genuine shape change pushes the correlation to
  /// ~0 and accumulates ~min_profile_correlation per bin until the latch.
  /// Units: correlation × bins.
  double profile_cusum_threshold = 1.0;
  /// Master switch for the periodicity-consistency check (it also needs a
  /// detected period and a reference covering one full period).
  bool check_periodicity = true;
};

/// \brief One tenant's streaming drift statistics.
class DriftDetector {
 public:
  DriftDetector() = default;

  /// \param options        policy knobs (shared fleet-wide).
  /// \param expected_rates per-second rate the trained model predicts for
  ///                       each Δt bin from `origin` on; bins past the end
  ///                       wrap into the last full period (or hold the last
  ///                       value when no period is known).
  /// \param dt             bin width in seconds (the forecast's Δt).
  /// \param period_bins    trained period in bins (0 = aperiodic).
  /// \param origin         serving time of the left edge of bin 0.
  static Result<DriftDetector> Make(const DriftDetectorOptions& options,
                                    std::vector<double> expected_rates,
                                    double dt, std::size_t period_bins,
                                    double origin);

  /// Feeds one arrival at serving time `t` (must be non-decreasing; closes
  /// every bin that ends at or before `t` first).
  void Observe(double t);

  /// Closes every bin that ends at or before `now` (call on the planning
  /// cadence so silence — rates dropping to zero — is also evidence).
  void AdvanceTo(double now);

  /// True once a drift latched; the detector keeps accepting events but
  /// never un-fires (the fleet replaces it wholesale at the next swap).
  bool fired() const { return kind_ != DriftKind::kNone; }
  DriftKind kind() const { return kind_; }
  /// Serving time of the end of the bin that latched (0 before firing).
  double fired_time() const { return fired_time_; }

  std::size_t bins_closed() const { return bins_closed_; }
  double score_up() const { return g_up_; }
  double score_down() const { return g_down_; }
  /// Accumulated correlation-shortfall mass of the periodicity check.
  double profile_score() const { return corr_cusum_; }

  /// Rebinds the policy knobs without touching the statistic state (used
  /// when a restored detector joins a fleet with a different policy).
  void set_options(const DriftDetectorOptions& options) { options_ = options; }

  /// Writes a kTagDriftDetector section with the full statistic state.
  void Serialize(persist::Writer* writer) const;

  /// Reads a kTagDriftDetector section; `options` are not persisted (they
  /// live with the fleet policy) and must match the writer's for the
  /// continuation to be bit-identical.
  static Result<DriftDetector> Deserialize(persist::Reader* reader,
                                           const DriftDetectorOptions& options);

  /// Prints a kTagDriftDetector section field by field (rs_snapshot).
  static Status Describe(persist::Printer* printer);

 private:
  template <class Io, class Rec>
  friend Status DetectorFields(Io& io, Rec& detector);

  void CloseBin();
  double ExpectedRate(std::size_t bin) const;

  DriftDetectorOptions options_;
  std::vector<double> expected_;
  double dt_ = 60.0;
  std::size_t period_ = 0;
  double origin_ = 0.0;

  std::size_t bins_closed_ = 0;
  double open_count_ = 0.0;  ///< Events in the currently open bin.
  double g_up_ = 0.0;        ///< CUSUM score, upward shifts.
  double g_down_ = 0.0;      ///< CUSUM score, downward shifts.
  std::vector<double> ring_;  ///< Last `period_` observed rates, by phase.
  double corr_cusum_ = 0.0;   ///< Leaky CUSUM of correlation shortfall.
  DriftKind kind_ = DriftKind::kNone;
  double fired_time_ = 0.0;
};

}  // namespace rs::ts

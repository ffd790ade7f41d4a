#include "rs/timeseries/drift.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "rs/persist/fields.hpp"

namespace rs::ts {

namespace {

/// Detector payload layout version inside kTagDriftDetector.
constexpr std::uint32_t kDetectorVersion = 1;

/// Pearson correlation; NaN-free: returns 0 when either side is constant
/// (no shape to compare — the caller treats that as "no evidence").
double Correlation(const std::vector<double>& a, const std::vector<double>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  if (n < 2) return 0.0;
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double saa = 0.0, sbb = 0.0, sab = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    saa += da * da;
    sbb += db * db;
    sab += da * db;
  }
  if (!(saa > 0.0) || !(sbb > 0.0)) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

/// The geometry checks a built and a restored detector share. A non-finite
/// origin makes AdvanceTo loop forever; an empty reference is read past
/// its end.
Status CheckGeometry(const std::vector<double>& expected_rates, double dt,
                     double origin) {
  if (!(dt > 0.0)) return Status::Invalid("DriftDetector: dt must be > 0");
  if (!std::isfinite(origin)) {
    return Status::Invalid("DriftDetector: origin must be finite");
  }
  if (expected_rates.empty()) {
    return Status::Invalid("DriftDetector: expected_rates must be non-empty");
  }
  for (double r : expected_rates) {
    if (!std::isfinite(r) || r < 0.0) {
      return Status::Invalid("DriftDetector: expected rates must be finite");
    }
  }
  return Status::OK();
}

}  // namespace

const char* DriftKindToString(DriftKind kind) {
  switch (kind) {
    case DriftKind::kNone:
      return "none";
    case DriftKind::kRateShift:
      return "rate_shift";
    case DriftKind::kPeriodicityBreak:
      return "periodicity_break";
  }
  return "unknown";
}

/// The DRFT record.
template <class Io, class Rec>
Status DetectorFields(Io& io, Rec& d) {
  io.Section("drift detector", persist::kTagDriftDetector, [&] {
    io.Version("DriftDetector snapshot", kDetectorVersion);
    io("dt", d.dt_);
    io("origin", d.origin_);
    io("period", d.period_);
    io("expected", d.expected_);
    io("bins_closed", d.bins_closed_);
    io("open_count", d.open_count_);
    io("g_up", d.g_up_);
    io("g_down", d.g_down_);
    io("ring", d.ring_);
    io("corr_cusum", d.corr_cusum_);
    io("kind", d.kind_, DriftKind::kPeriodicityBreak);
    io("fired_time", d.fired_time_);
  });
  return io.status();
}

Result<DriftDetector> DriftDetector::Make(const DriftDetectorOptions& options,
                                          std::vector<double> expected_rates,
                                          double dt, std::size_t period_bins,
                                          double origin) {
  RS_RETURN_NOT_OK(CheckGeometry(expected_rates, dt, origin));
  if (!(options.threshold > 0.0)) {
    return Status::Invalid("DriftDetector: threshold must be > 0");
  }
  if (!(options.min_rate > 0.0)) {
    return Status::Invalid("DriftDetector: min_rate must be > 0");
  }
  if (!(options.profile_cusum_threshold > 0.0)) {
    return Status::Invalid(
        "DriftDetector: profile_cusum_threshold must be > 0");
  }
  DriftDetector detector;
  detector.options_ = options;
  detector.expected_ = std::move(expected_rates);
  detector.dt_ = dt;
  // The phase check needs one full reference period to compare against.
  detector.period_ =
      period_bins > 1 && period_bins <= detector.expected_.size() ? period_bins
                                                                  : 0;
  detector.origin_ = origin;
  if (detector.period_ > 0) detector.ring_.assign(detector.period_, 0.0);
  return detector;
}

double DriftDetector::ExpectedRate(std::size_t bin) const {
  const std::size_t n = expected_.size();
  if (bin < n) return expected_[bin];
  if (period_ > 0) {
    // Wrap into the last full reference period, phase-aligned: the
    // reference bin with the same phase (bin mod L) in [n − L, n).
    const std::size_t base = n - period_;
    return expected_[base + (bin - base) % period_];
  }
  return expected_.back();
}

void DriftDetector::CloseBin() {
  const std::size_t bin = bins_closed_;
  const double observed = open_count_ / dt_;
  open_count_ = 0.0;
  ++bins_closed_;

  const double expected = ExpectedRate(bin);
  const double scale = std::max(expected, options_.min_rate);
  const double x = (observed - expected) / scale;

  g_up_ = std::max(0.0, g_up_ + x - options_.delta);
  g_down_ = std::max(0.0, g_down_ - x - options_.delta);

  const bool armed = bins_closed_ >= options_.warmup_bins;
  if (!fired() && armed &&
      (g_up_ > options_.threshold || g_down_ > options_.threshold)) {
    kind_ = DriftKind::kRateShift;
    fired_time_ = origin_ + static_cast<double>(bins_closed_) * dt_;
  }

  if (period_ > 0) {
    ring_[bin % period_] = observed;
    // Compare phase profiles at every closed bin once the ring holds a full
    // period (a sliding window of the last L observed rates). Both sides
    // are indexed by phase (bin mod L), so the pairing is the same at any
    // point in the cycle — no need to wait for a period boundary, which
    // would delay detection by up to a whole period.
    if (!fired() && armed && bins_closed_ >= period_ &&
        options_.check_periodicity) {
      // Reference profile by phase: the bin of the last full reference
      // period [n − L, n) whose phase (bin mod L) equals p.
      std::vector<double> profile(period_);
      const std::size_t base = expected_.size() - period_;
      const std::size_t offset = base % period_;
      for (std::size_t p = 0; p < period_; ++p) {
        profile[p] = expected_[base + (p + period_ - offset) % period_];
      }
      const double corr = Correlation(ring_, profile);
      corr_cusum_ = std::max(
          0.0, corr_cusum_ + (options_.min_profile_correlation - corr));
      if (corr_cusum_ >= options_.profile_cusum_threshold) {
        kind_ = DriftKind::kPeriodicityBreak;
        fired_time_ = origin_ + static_cast<double>(bins_closed_) * dt_;
      }
    }
  }
}

void DriftDetector::Observe(double t) {
  if (!std::isfinite(t) || t < origin_) return;
  AdvanceTo(t);
  open_count_ += 1.0;
}

void DriftDetector::AdvanceTo(double now) {
  if (!std::isfinite(now)) return;
  // Close every bin whose right edge is at or before `now`.
  while (origin_ + static_cast<double>(bins_closed_ + 1) * dt_ <= now) {
    CloseBin();
  }
}

void DriftDetector::Serialize(persist::Writer* writer) const {
  persist::Encoder io(writer);
  DetectorFields(io, *this);
}

Result<DriftDetector> DriftDetector::Deserialize(
    persist::Reader* reader, const DriftDetectorOptions& options) {
  DriftDetector detector;
  detector.options_ = options;
  persist::Decoder io(reader);
  RS_RETURN_NOT_OK(DetectorFields(io, detector));
  RS_RETURN_NOT_OK(
      CheckGeometry(detector.expected_, detector.dt_, detector.origin_));
  if (detector.period_ > detector.expected_.size() ||
      detector.ring_.size() != detector.period_) {
    return Status::Invalid("DriftDetector: snapshot period inconsistent");
  }
  return detector;
}

Status DriftDetector::Describe(persist::Printer* printer) {
  DriftDetector scratch;
  return DetectorFields(*printer, scratch);
}

}  // namespace rs::ts

#include "rs/timeseries/drift.hpp"

#include <algorithm>
#include <cmath>
#include <string>

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

Result<DriftDetector> DriftDetector::Make(const DriftDetectorOptions& options,
                                          std::vector<double> expected_rates,
                                          double dt, std::size_t period_bins,
                                          double origin) {
  if (!(dt > 0.0)) return Status::Invalid("DriftDetector: dt must be > 0");
  if (expected_rates.empty()) {
    return Status::Invalid("DriftDetector: expected_rates must be non-empty");
  }
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
  for (double r : expected_rates) {
    if (!std::isfinite(r) || r < 0.0) {
      return Status::Invalid("DriftDetector: expected rates must be finite");
    }
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
  writer->BeginSection(persist::kTagDriftDetector);
  writer->WriteU32(kDetectorVersion);
  writer->WriteDouble(dt_);
  writer->WriteDouble(origin_);
  writer->WriteU64(period_);
  writer->WriteDoubleVector(expected_);
  writer->WriteU64(bins_closed_);
  writer->WriteDouble(open_count_);
  writer->WriteDouble(g_up_);
  writer->WriteDouble(g_down_);
  writer->WriteDoubleVector(ring_);
  writer->WriteDouble(corr_cusum_);
  writer->WriteU8(static_cast<std::uint8_t>(kind_));
  writer->WriteDouble(fired_time_);
  writer->EndSection();
}

Result<DriftDetector> DriftDetector::Deserialize(
    persist::Reader* reader, const DriftDetectorOptions& options) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagDriftDetector));
  RS_RETURN_NOT_OK(reader->ReadLayerVersion("DriftDetector snapshot",
                                            kDetectorVersion));
  DriftDetector detector;
  detector.options_ = options;
  RS_ASSIGN_OR_RETURN(detector.dt_, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(detector.origin_, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(auto period, reader->ReadU64());
  detector.period_ = static_cast<std::size_t>(period);
  RS_RETURN_NOT_OK(reader->ReadDoubleVector(&detector.expected_));
  RS_ASSIGN_OR_RETURN(auto bins, reader->ReadU64());
  detector.bins_closed_ = static_cast<std::size_t>(bins);
  RS_ASSIGN_OR_RETURN(detector.open_count_, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(detector.g_up_, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(detector.g_down_, reader->ReadDouble());
  RS_RETURN_NOT_OK(reader->ReadDoubleVector(&detector.ring_));
  RS_ASSIGN_OR_RETURN(detector.corr_cusum_, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(auto kind, reader->ReadU8());
  detector.kind_ = static_cast<DriftKind>(kind);
  RS_ASSIGN_OR_RETURN(detector.fired_time_, reader->ReadDouble());
  RS_RETURN_NOT_OK(reader->ExitSection());
  if (!(detector.dt_ > 0.0)) {
    return Status::Invalid("DriftDetector: snapshot dt must be > 0");
  }
  if (detector.expected_.empty()) {
    return Status::Invalid("DriftDetector: snapshot expected rates empty");
  }
  if (detector.period_ > detector.expected_.size() ||
      detector.ring_.size() != detector.period_) {
    return Status::Invalid("DriftDetector: snapshot period inconsistent");
  }
  return detector;
}

}  // namespace rs::ts

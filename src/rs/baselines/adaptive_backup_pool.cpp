#include "rs/baselines/adaptive_backup_pool.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "rs/common/logging.hpp"
#include "rs/persist/fields.hpp"

namespace rs::baseline {

namespace {
constexpr std::uint32_t kModelVersion = 1;
}  // namespace

/// The ABPM record.
template <class Io, class Rec>
Status AdaptiveModelFields(Io& io, Rec& pool) {
  io.Section("adaptive backup pool model", persist::kTagAdaptiveModel, [&] {
    io.Version("AdapBP model record", kModelVersion);
    io("multiplier", pool.multiplier_);
    io("update_interval", pool.update_interval_);
    io("estimate_window", pool.estimate_window_);
    io("target", pool.target_);
  });
  return io.status();
}

AdaptiveBackupPool::AdaptiveBackupPool(double multiplier,
                                       double update_interval,
                                       double estimate_window)
    : multiplier_(multiplier),
      update_interval_(update_interval),
      estimate_window_(estimate_window) {
  RS_CHECK(multiplier >= 0.0) << "AdapBP multiplier must be >= 0";
  RS_CHECK(update_interval > 0.0 && estimate_window > 0.0)
      << "AdapBP intervals must be positive";
}

sim::ScalingAction AdaptiveBackupPool::OnPlanningTick(
    const sim::SimContext& ctx) {
  // Estimate current QPS from arrivals in the trailing window.
  const auto& history = *ctx.arrival_history;
  const double window_begin = std::max(0.0, ctx.now - estimate_window_);
  const double window_len = ctx.now - window_begin;
  std::size_t count = 0;
  for (auto it = history.rbegin(); it != history.rend(); ++it) {
    if (*it < window_begin) break;
    ++count;
  }
  const double qps =
      window_len > 0.0 ? static_cast<double>(count) / window_len : 0.0;
  target_ = static_cast<std::size_t>(std::llround(qps * multiplier_));

  sim::ScalingAction action;
  const std::size_t outstanding = ctx.Outstanding();
  if (outstanding < target_) {
    action.creation_times.assign(target_ - outstanding, ctx.now);
  } else if (outstanding > target_) {
    action.deletions = outstanding - target_;
  }
  return action;
}

sim::ScalingAction AdaptiveBackupPool::OnQueryArrival(
    const sim::SimContext& ctx, bool cold_start) {
  (void)cold_start;
  sim::ScalingAction action;
  const std::size_t outstanding = ctx.Outstanding();
  if (outstanding < target_) {
    action.creation_times.assign(target_ - outstanding, ctx.now);
  }
  return action;
}

Status AdaptiveBackupPool::SerializeModel(persist::Writer* writer) const {
  persist::Encoder io(writer);
  return AdaptiveModelFields(io, *this);
}

Status AdaptiveBackupPool::DeserializeModel(persist::Reader* reader) {
  persist::Decoder io(reader);
  RS_RETURN_NOT_OK(AdaptiveModelFields(io, *this));
  if (!(multiplier_ >= 0.0) || !(update_interval_ > 0.0) ||
      !(estimate_window_ > 0.0)) {
    return Status::Invalid(
        "AdapBP snapshot carries out-of-domain parameters (multiplier must "
        "be >= 0, intervals positive)");
  }
  return Status::OK();
}

Status AdaptiveBackupPool::DescribeModel(persist::Printer* printer) {
  AdaptiveBackupPool scratch(0.0);
  return AdaptiveModelFields(*printer, scratch);
}

}  // namespace rs::baseline

#include "rs/baselines/adaptive_backup_pool.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "rs/common/logging.hpp"
#include "rs/persist/persist.hpp"

namespace rs::baseline {

namespace {
constexpr std::uint32_t kModelVersion = 1;
}  // namespace

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
  writer->BeginSection(persist::kTagAdaptiveModel);
  writer->WriteU32(kModelVersion);
  writer->WriteDouble(multiplier_);
  writer->WriteDouble(update_interval_);
  writer->WriteDouble(estimate_window_);
  writer->WriteU64(target_);
  writer->EndSection();
  return Status::OK();
}

Status AdaptiveBackupPool::DeserializeModel(persist::Reader* reader) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagAdaptiveModel));
  RS_RETURN_NOT_OK(reader->ReadLayerVersion("AdapBP model record",
                                            kModelVersion));
  RS_ASSIGN_OR_RETURN(multiplier_, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(update_interval_, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(estimate_window_, reader->ReadDouble());
  if (!(multiplier_ >= 0.0) || !(update_interval_ > 0.0) ||
      !(estimate_window_ > 0.0)) {
    return Status::Invalid(
        "AdapBP snapshot carries out-of-domain parameters (multiplier must "
        "be >= 0, intervals positive)");
  }
  RS_ASSIGN_OR_RETURN(const std::uint64_t target, reader->ReadU64());
  target_ = static_cast<std::size_t>(target);
  return reader->ExitSection();
}

}  // namespace rs::baseline

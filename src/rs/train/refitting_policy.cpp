// rs::core::RefittingPolicy (declared in rs/core/extensions.hpp with the
// other ablation strategies) lives in the train layer because it refits
// through a train::TrainingSession.
#include <utility>

#include "rs/common/logging.hpp"
#include "rs/core/extensions.hpp"
#include "rs/train/training_session.hpp"

namespace rs::core {

namespace {

/// True while session time `t` lies past the last bin of a window of
/// `bins` bins starting at 0: the arithmetic AppendArrivals (and
/// TrainRobustScaler's binning) use to drop an arrival, floor(t/dt) >= bins.
bool PastWindow(double t, double dt, std::size_t bins) {
  return t >= 0.0 && t / dt >= static_cast<double>(bins);
}

}  // namespace

RefittingPolicy::RefittingPolicy(workload::Trace training,
                                 stats::DurationDistribution pending,
                                 RefittingOptions options)
    : offset_(training.horizon()),
      pending_(pending),
      options_(std::move(options)) {
  RS_CHECK(options_.refit_interval > 0.0)
      << "RefittingPolicy: refit_interval must be > 0";
  auto session = train::TrainingSession::FromTrace(training, options_.pipeline);
  if (!session.ok()) {
    session_status_ = session.status();
    return;
  }
  session_ = std::make_unique<train::TrainingSession>(
      std::move(session).ValueOrDie());
  for (const double t : training.ArrivalTimes()) {
    if (PastWindow(t, options_.pipeline.dt, session_->bins())) {
      unbinned_.push_back(t);
    }
  }
}

RefittingPolicy::~RefittingPolicy() = default;

Status RefittingPolicy::Refit(double now,
                              const std::vector<double>& observed_arrivals) {
  if (session_ == nullptr) return session_status_;
  // Extended history: the training window plus everything observed since
  // simulation start, shifted onto the training clock. Only arrivals since
  // the last refit are new to the session.
  for (; observed_binned_ < observed_arrivals.size(); ++observed_binned_) {
    unbinned_.push_back(observed_arrivals[observed_binned_] + offset_);
  }
  RS_RETURN_NOT_OK(session_->AppendArrivals(unbinned_, offset_ + now));
  // An arrival exactly on the new window end is dropped by this binning
  // and counted by the next refit's larger window: keep it until then.
  std::erase_if(unbinned_, [this](double t) {
    return !PastWindow(t, options_.pipeline.dt, session_->bins());
  });

  // The forecast must cover the remaining replay; callers set
  // pipeline.forecast_horizon to at least the test horizon and we keep it.
  RS_ASSIGN_OR_RETURN(auto trained, session_->Fit());

  SequentialScalerOptions scaler = options_.scaler;
  scaler.forecast_origin = now;  // Forecast local time 0 == sim time `now`.
  delegate_ = std::make_unique<RobustScalerPolicy>(trained.forecast, pending_,
                                                   scaler);
  last_refit_ = now;
  ++refit_count_;
  return Status::OK();
}

sim::ScalingAction RefittingPolicy::Initialize(const sim::SimContext& ctx) {
  const Status status = Refit(ctx.now, {});
  if (!status.ok()) {
    RS_LOG(Warning) << "RefittingPolicy: initial fit failed: "
                    << status.ToString();
    return {};
  }
  return delegate_->Initialize(ctx);
}

sim::ScalingAction RefittingPolicy::OnPlanningTick(const sim::SimContext& ctx) {
  if (ctx.now - last_refit_ >= options_.refit_interval &&
      ctx.arrival_history != nullptr) {
    const Status status = Refit(ctx.now, *ctx.arrival_history);
    if (!status.ok()) {
      RS_LOG(Warning) << "RefittingPolicy: refit failed (keeping previous "
                         "model): "
                      << status.ToString();
    }
  }
  if (delegate_ == nullptr) return {};
  return delegate_->OnPlanningTick(ctx);
}

}  // namespace rs::core

#include "rs/core/extensions.hpp"

#include <algorithm>
#include <cmath>

#include "rs/common/logging.hpp"
#include "rs/core/arrival_predictor.hpp"
#include "rs/core/decision.hpp"

namespace rs::core {

NaiveBatchScaler::NaiveBatchScaler(workload::PiecewiseConstantIntensity forecast,
                                   stats::DurationDistribution pending,
                                   NaiveBatchOptions options)
    : forecast_(std::move(forecast)),
      pending_(pending),
      options_(options),
      rng_(options.seed) {
  RS_CHECK(options_.batch >= 1 && options_.mc_samples >= 1)
      << "NaiveBatchScaler: batch and mc_samples must be >= 1";
}

sim::ScalingAction NaiveBatchScaler::Initialize(const sim::SimContext& ctx) {
  return PlanBatch(ctx.now);
}

sim::ScalingAction NaiveBatchScaler::OnQueryArrival(const sim::SimContext& ctx,
                                                    bool cold_start) {
  (void)cold_start;
  // The defining defect: replan only after the whole batch is consumed.
  if (ctx.Outstanding() > 0) return {};
  return PlanBatch(ctx.now);
}

sim::ScalingAction NaiveBatchScaler::PlanBatch(double now) {
  sim::ScalingAction action;
  auto samples = PredictUpcomingQueries(forecast_, now, options_.batch,
                                        options_.mc_samples, pending_, &rng_);
  if (!samples.ok()) {
    RS_LOG(Warning) << "NaiveBatchScaler: prediction failed: "
                    << samples.status().ToString();
    return action;
  }
  for (const auto& s : *samples) {
    auto decision = SolveHpConstrained(s, options_.alpha);
    if (!decision.ok()) break;
    action.creation_times.push_back(now + decision->creation_time);
  }
  return action;
}

MeanRateScaler::MeanRateScaler(workload::PiecewiseConstantIntensity forecast,
                               stats::DurationDistribution pending,
                               MeanRateOptions options)
    : forecast_(std::move(forecast)), pending_(pending), options_(options) {
  RS_CHECK(options_.planning_interval > 0.0 && options_.depth >= 1)
      << "MeanRateScaler: invalid options";
}

sim::ScalingAction MeanRateScaler::OnPlanningTick(const sim::SimContext& ctx) {
  sim::ScalingAction action;
  const double now = ctx.now;
  const std::size_t outstanding = ctx.Outstanding();
  if (outstanding >= options_.depth) return action;
  const double base = forecast_.Cumulative(now);
  const double mean_pending = pending_.Mean();
  for (std::size_t j = outstanding + 1; j <= options_.depth; ++j) {
    // "Expected" arrival of the j-th upcoming query: the time by which the
    // integrated intensity accumulates j — a mean estimate with no
    // uncertainty quantification.
    auto t = forecast_.InverseCumulative(base + static_cast<double>(j));
    if (!t.ok()) break;
    action.creation_times.push_back(
        std::max(now, t.ValueOrDie() - mean_pending));
  }
  return action;
}

}  // namespace rs::core

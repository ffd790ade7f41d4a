/// \file builtin_strategies.cpp
/// \brief Self-registration of the five paper strategies with the global
///        StrategyRegistry. This file is the single place where the "target"
///        parameter of each RobustScaler variant is interpreted (via
///        api::TargetFromParam), so its semantics cannot drift between
///        benches, examples and the builder facade.
#include <cmath>
#include <memory>
#include <sstream>

#include "rs/api/strategy_registry.hpp"
#include "rs/api/targets.hpp"
#include "rs/common/logging.hpp"
#include "rs/baselines/adaptive_backup_pool.hpp"
#include "rs/baselines/backup_pool.hpp"
#include "rs/core/sequential_scaler.hpp"

namespace rs::api {
namespace internal {

namespace {

Status CheckCount(const char* strategy, const char* key, double value) {
  // 2^53: exactly representable, fits every unsigned destination used here.
  // The upper bound keeps the subsequent double→unsigned cast defined.
  constexpr double kMaxCount = 9007199254740992.0;
  if (!(value >= 0.0) || value != std::floor(value) || value > kMaxCount) {
    std::ostringstream msg;
    msg << "strategy '" << strategy << "': parameter '" << key
        << "' must be a non-negative integer (at most 2^53), got " << value;
    return Status::Invalid(msg.str());
  }
  return Status::OK();
}

Status CheckPositive(const char* strategy, const char* key, double value) {
  if (!(value > 0.0)) {
    std::ostringstream msg;
    msg << "strategy '" << strategy << "': parameter '" << key
        << "' must be > 0, got " << value;
    return Status::Invalid(msg.str());
  }
  return Status::OK();
}

/// BP: a constant pool of `pool_size` warm instances (0 = pure reactive).
Result<std::unique_ptr<sim::Autoscaler>> MakeBackupPool(
    const StrategySpec& spec, const StrategyContext& context) {
  (void)context;
  ParamReader params(spec);
  const double pool_size = params.Get("pool_size", 0.0);
  RS_RETURN_NOT_OK(params.Finish());
  // Validate before the double→unsigned cast (negative values are UB).
  RS_RETURN_NOT_OK(CheckCount("backup_pool", "pool_size", pool_size));
  return std::unique_ptr<sim::Autoscaler>(std::make_unique<baseline::BackupPool>(
      static_cast<std::size_t>(pool_size)));
}

/// AdapBP: pool resized to round(recent QPS × multiplier) every interval.
Result<std::unique_ptr<sim::Autoscaler>> MakeAdaptiveBackupPool(
    const StrategySpec& spec, const StrategyContext& context) {
  (void)context;
  ParamReader params(spec);
  const double multiplier = params.Get("multiplier", 1.0);
  const double update_interval = params.Get("update_interval", 600.0);
  const double estimate_window = params.Get("estimate_window", 600.0);
  RS_RETURN_NOT_OK(params.Finish());
  RS_RETURN_NOT_OK(
      CheckPositive("adaptive_backup_pool", "multiplier", multiplier));
  RS_RETURN_NOT_OK(
      CheckPositive("adaptive_backup_pool", "update_interval", update_interval));
  RS_RETURN_NOT_OK(
      CheckPositive("adaptive_backup_pool", "estimate_window", estimate_window));
  return std::unique_ptr<sim::Autoscaler>(
      std::make_unique<baseline::AdaptiveBackupPool>(multiplier, update_interval,
                                                     estimate_window));
}

/// Shared constructor of the three RobustScaler variants; `variant` decides
/// how the "target" parameter is interpreted (see api::TargetFromParam).
Result<std::unique_ptr<sim::Autoscaler>> MakeRobustVariant(
    core::ScalerVariant variant, double default_target,
    const StrategySpec& spec, const StrategyContext& context) {
  const char* name = StrategyNameFor(variant);
  if (context.forecast == nullptr) {
    return Status::Invalid(
        std::string("strategy '") + name +
        "' requires a forecast intensity: train one with "
        "rs::api::ScalerBuilder or set StrategyContext.forecast");
  }

  ParamReader params(spec);
  const double raw_target = params.Get("target", default_target);
  core::SequentialScalerOptions options;
  const double mc_samples =
      params.Get("mc_samples", static_cast<double>(context.mc_samples));
  const double max_creations =
      params.Get("max_creations_per_round",
                 static_cast<double>(options.max_creations_per_round));
  const double seed =
      params.Get("seed", static_cast<double>(context.seed));
  options.planning_interval =
      params.Get("planning_interval", context.planning_interval);
  options.kappa_alpha = params.Get("kappa_alpha", options.kappa_alpha);
  options.local_intensity_window =
      params.Get("local_intensity_window", options.local_intensity_window);
  options.forecast_origin =
      params.Get("forecast_origin", options.forecast_origin);
  RS_RETURN_NOT_OK(params.Finish());

  // Validate count-like parameters BEFORE the double→unsigned casts: a
  // negative double to unsigned conversion is undefined behavior and would
  // otherwise wrap past the >= 1 guards.
  RS_RETURN_NOT_OK(CheckCount(name, "mc_samples", mc_samples));
  RS_RETURN_NOT_OK(CheckCount(name, "max_creations_per_round", max_creations));
  RS_RETURN_NOT_OK(CheckCount(name, "seed", seed));
  options.mc_samples = static_cast<std::size_t>(mc_samples);
  options.max_creations_per_round = static_cast<std::size_t>(max_creations);
  options.seed = static_cast<std::uint64_t>(seed);

  RS_ASSIGN_OR_RETURN(auto target, TargetFromParam(variant, raw_target));
  RS_RETURN_NOT_OK(ApplyTarget(target, &options));
  if (options.mc_samples == 0) {
    return Status::Invalid(std::string("strategy '") + name +
                           "': mc_samples must be >= 1");
  }
  RS_RETURN_NOT_OK(CheckPositive(name, "planning_interval",
                                 options.planning_interval));
  if (!(options.kappa_alpha > 0.0) || !(options.kappa_alpha < 1.0)) {
    return Status::Invalid(std::string("strategy '") + name +
                           "': kappa_alpha must be in (0, 1)");
  }
  return std::unique_ptr<sim::Autoscaler>(
      std::make_unique<core::RobustScalerPolicy>(*context.forecast,
                                                 context.pending, options));
}

}  // namespace

void RegisterBuiltinStrategies(StrategyRegistry& registry) {
  // A failed builtin registration (e.g. a future duplicate name) must fail
  // loudly at startup, not surface as "unknown strategy" at use time.
  auto must = [](Status status) {
    RS_CHECK(status.ok()) << status.ToString();
  };
  must(registry.Register("backup_pool", MakeBackupPool));
  must(registry.Register("adaptive_backup_pool", MakeAdaptiveBackupPool));
  must(registry.Register(
      "robust_hp", [](const StrategySpec& spec, const StrategyContext& ctx) {
        return MakeRobustVariant(core::ScalerVariant::kHittingProbability, 0.9,
                                 spec, ctx);
      }));
  must(registry.Register(
      "robust_rt", [](const StrategySpec& spec, const StrategyContext& ctx) {
        return MakeRobustVariant(core::ScalerVariant::kResponseTime, 1.0, spec,
                                 ctx);
      }));
  must(registry.Register(
      "robust_cost", [](const StrategySpec& spec, const StrategyContext& ctx) {
        return MakeRobustVariant(core::ScalerVariant::kCost, 2.0, spec, ctx);
      }));
}

}  // namespace internal
}  // namespace rs::api

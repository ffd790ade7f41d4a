/// \file strategy_registry.hpp
/// \brief String-keyed registry of autoscaling strategies. The five paper
///        strategies (backup_pool, adaptive_backup_pool, robust_hp,
///        robust_rt, robust_cost) self-register; new strategies plug in with
///        one Register() call and become addressable from every bench,
///        example and future CLI without touching their callers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rs/api/strategy_spec.hpp"
#include "rs/common/status.hpp"
#include "rs/simulator/autoscaler.hpp"
#include "rs/stats/distributions.hpp"
#include "rs/workload/intensity.hpp"

namespace rs::api {

/// \brief Everything a strategy factory may need beyond its own parameters.
///
/// Baseline strategies (backup_pool, adaptive_backup_pool) ignore the
/// forecast; RobustScaler strategies require it and fail with a helpful
/// Status when it is missing. The mc_samples / planning_interval fields are
/// defaults that individual specs can override via parameters of the same
/// name.
struct StrategyContext {
  /// Forecast intensity over the serving window (local time 0 = serving
  /// start). Not owned; must outlive the created strategy.
  const workload::PiecewiseConstantIntensity* forecast = nullptr;
  /// Instance pending/startup-time distribution τ_i.
  stats::DurationDistribution pending =
      stats::DurationDistribution::Deterministic(13.0);
  /// Default Monte Carlo samples per decision for RobustScaler strategies.
  std::size_t mc_samples = 300;
  /// Default planning interval Δ in seconds for RobustScaler strategies.
  double planning_interval = 1.0;
  /// Default seed of the strategy's Monte Carlo stream.
  std::uint64_t seed = 31;
};

/// \brief The string-keyed strategy registry.
///
/// Thread-compatible: registration happens at static-init / first-use time;
/// Create() and Names() are const lookups afterwards.
class StrategyRegistry {
 public:
  using Factory = std::function<Result<std::unique_ptr<sim::Autoscaler>>(
      const StrategySpec&, const StrategyContext&)>;

  /// The process-wide registry, pre-populated with the built-in strategies.
  static StrategyRegistry& Global();

  /// Registers a factory under `name`; Invalid if the name is taken.
  Status Register(const std::string& name, Factory factory);

  /// \brief Instantiates the strategy `spec.name` with `spec.params`.
  ///
  /// Unknown names produce an Invalid Status listing the registered names;
  /// unknown parameters produce an Invalid Status listing the known keys.
  Result<std::unique_ptr<sim::Autoscaler>> Create(
      const StrategySpec& spec, const StrategyContext& context = {}) const;

  /// Registered strategy names, sorted.
  std::vector<std::string> Names() const;

  bool Contains(const std::string& name) const;

 private:
  StrategyRegistry() = default;

  std::map<std::string, Factory> factories_;
};

/// Convenience: StrategyRegistry::Global().Create(spec, context).
Result<std::unique_ptr<sim::Autoscaler>> MakeStrategy(
    const StrategySpec& spec, const StrategyContext& context = {});

}  // namespace rs::api

/// \file policy_persist.cpp
/// \brief rs::persist serializers for the core planning policies.
///
/// Kept out of sequential_scaler.cpp so the planning hot path and the
/// snapshot codec evolve independently. Construction-time inputs (forecast,
/// pending distribution, option values) are rebuilt from the StrategySpec by
/// the api layer before DeserializeModel runs; these records carry the
/// mutable model state plus enough of the options to cross-check that the
/// spec and the snapshot agree.

#include <cmath>
#include <string>

#include "rs/core/sequential_scaler.hpp"
#include "rs/persist/fields.hpp"

namespace rs::core {

namespace {

constexpr std::uint32_t kRobustModelVersion = 1;

const char* VariantName(ScalerVariant variant) {
  switch (variant) {
    case ScalerVariant::kHittingProbability:
      return "hp";
    case ScalerVariant::kResponseTime:
      return "rt";
    case ScalerVariant::kCost:
      return "cost";
  }
  return "?";
}

/// What a ROBS record carries: the planner options and the RNG position.
struct RobustModel {
  SequentialScalerOptions options;
  stats::Rng rng;
};

/// The ROBS record.
template <class Io, class Rec>
Status RobustModelFields(Io& io, Rec& model) {
  auto& o = model.options;
  io.Section("RobustScaler model", persist::kTagRobustModel, [&] {
    io.Version("RobustScaler model record", kRobustModelVersion);
    io("variant", o.variant, ScalerVariant::kCost);
    io("alpha", o.alpha);
    io("rt_excess", o.rt_excess);
    io("idle_budget", o.idle_budget);
    io("mc_samples", o.mc_samples);
    io("planning_interval", o.planning_interval);
    io("max_creations_per_round", o.max_creations_per_round);
    io("kappa_alpha", o.kappa_alpha);
    io("local_intensity_window", o.local_intensity_window);
    io("forecast_origin", o.forecast_origin);
    io("seed", o.seed);
    io("rng", model.rng);
  });
  return io.status();
}

}  // namespace

Status RobustScalerPolicy::SerializeModel(persist::Writer* writer) const {
  persist::Encoder io(writer);
  const RobustModel model{options_, rng_};
  return RobustModelFields(io, model);
}

Status RobustScalerPolicy::DeserializeModel(persist::Reader* reader) {
  RobustModel model{options_, rng_};
  persist::Decoder io(reader);
  RS_RETURN_NOT_OK(RobustModelFields(io, model));
  const SequentialScalerOptions& o = model.options;
  if (o.variant != options_.variant) {
    return Status::Invalid(
        std::string("RobustScaler snapshot/spec mismatch: snapshot was "
                    "taken by the ") +
        VariantName(o.variant) + " variant but the spec rebuilt the " +
        VariantName(options_.variant) + " variant");
  }
  if (!(o.alpha > 0.0 && o.alpha < 1.0) ||
      !(o.kappa_alpha > 0.0 && o.kappa_alpha < 1.0) ||
      !(o.planning_interval > 0.0) || o.mc_samples == 0 ||
      !std::isfinite(o.forecast_origin)) {
    return Status::Invalid(
        "RobustScaler snapshot carries out-of-domain planner options");
  }
  options_ = o;
  rng_ = model.rng;
  return Status::OK();
}

Status RobustScalerPolicy::DescribeModel(persist::Printer* printer) {
  RobustModel scratch;
  return RobustModelFields(*printer, scratch);
}

}  // namespace rs::core

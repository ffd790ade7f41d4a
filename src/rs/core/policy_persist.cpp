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
#include "rs/persist/persist.hpp"

namespace rs::core {

namespace {

constexpr std::uint32_t kRobustModelVersion = 1;
constexpr std::uint32_t kHpCountModelVersion = 1;

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

}  // namespace

Status RobustScalerPolicy::SerializeModel(persist::Writer* writer) const {
  writer->BeginSection(persist::kTagRobustModel);
  writer->WriteU32(kRobustModelVersion);
  writer->WriteU8(static_cast<std::uint8_t>(options_.variant));
  writer->WriteDouble(options_.alpha);
  writer->WriteDouble(options_.rt_excess);
  writer->WriteDouble(options_.idle_budget);
  writer->WriteU64(options_.mc_samples);
  writer->WriteDouble(options_.planning_interval);
  writer->WriteU64(options_.max_creations_per_round);
  writer->WriteDouble(options_.kappa_alpha);
  writer->WriteDouble(options_.local_intensity_window);
  writer->WriteDouble(options_.forecast_origin);
  writer->WriteU64(options_.seed);
  persist::WriteRngState(writer, rng_);
  writer->EndSection();
  return Status::OK();
}

Status RobustScalerPolicy::DeserializeModel(persist::Reader* reader) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagRobustModel));
  RS_RETURN_NOT_OK(reader->ReadLayerVersion("RobustScaler model record",
                                            kRobustModelVersion));
  RS_ASSIGN_OR_RETURN(const std::uint8_t variant_byte, reader->ReadU8());
  if (variant_byte > static_cast<std::uint8_t>(ScalerVariant::kCost)) {
    return Status::Invalid("corrupt RobustScaler variant byte " +
                           std::to_string(variant_byte) + " in snapshot");
  }
  const auto variant = static_cast<ScalerVariant>(variant_byte);
  if (variant != options_.variant) {
    return Status::Invalid(
        std::string("RobustScaler snapshot/spec mismatch: snapshot was "
                    "taken by the ") +
        VariantName(variant) + " variant but the spec rebuilt the " +
        VariantName(options_.variant) + " variant");
  }
  RS_ASSIGN_OR_RETURN(options_.alpha, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(options_.rt_excess, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(options_.idle_budget, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const std::uint64_t mc_samples, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(options_.planning_interval, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const std::uint64_t max_creations, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(options_.kappa_alpha, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(options_.local_intensity_window, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(options_.forecast_origin, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(options_.seed, reader->ReadU64());
  if (!(options_.alpha > 0.0 && options_.alpha < 1.0) ||
      !(options_.kappa_alpha > 0.0 && options_.kappa_alpha < 1.0) ||
      !(options_.planning_interval > 0.0) || mc_samples == 0 ||
      !std::isfinite(options_.forecast_origin)) {
    return Status::Invalid(
        "RobustScaler snapshot carries out-of-domain planner options");
  }
  options_.mc_samples = static_cast<std::size_t>(mc_samples);
  options_.max_creations_per_round = static_cast<std::size_t>(max_creations);
  RS_RETURN_NOT_OK(persist::ReadRngState(reader, &rng_));
  return reader->ExitSection();
}

Status HpCountScaler::SerializeModel(persist::Writer* writer) const {
  writer->BeginSection(persist::kTagHpCountModel);
  writer->WriteU32(kHpCountModelVersion);
  writer->WriteDouble(options_.alpha);
  writer->WriteU64(options_.m);
  writer->WriteU64(options_.mc_samples);
  writer->WriteU64(options_.seed);
  writer->WriteDouble(options_.lambda_bar);
  writer->WriteU64(kappa_);
  writer->WriteU64(arrivals_since_plan_);
  persist::WriteRngState(writer, rng_);
  writer->EndSection();
  return Status::OK();
}

Status HpCountScaler::DeserializeModel(persist::Reader* reader) {
  RS_RETURN_NOT_OK(reader->EnterSection(persist::kTagHpCountModel));
  RS_RETURN_NOT_OK(reader->ReadLayerVersion("HP-count model record",
                                            kHpCountModelVersion));
  RS_ASSIGN_OR_RETURN(options_.alpha, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const std::uint64_t m, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t mc_samples, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(options_.seed, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(options_.lambda_bar, reader->ReadDouble());
  if (!(options_.alpha > 0.0 && options_.alpha < 1.0) || m == 0 ||
      mc_samples == 0) {
    return Status::Invalid(
        "HP-count snapshot carries out-of-domain planner options");
  }
  options_.m = static_cast<std::size_t>(m);
  options_.mc_samples = static_cast<std::size_t>(mc_samples);
  RS_ASSIGN_OR_RETURN(const std::uint64_t kappa, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t since, reader->ReadU64());
  kappa_ = static_cast<std::size_t>(kappa);
  arrivals_since_plan_ = static_cast<std::size_t>(since);
  RS_RETURN_NOT_OK(persist::ReadRngState(reader, &rng_));
  return reader->ExitSection();
}

}  // namespace rs::core

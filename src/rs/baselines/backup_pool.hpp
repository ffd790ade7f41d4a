/// \file backup_pool.hpp
/// \brief Backup Pool (BP) baseline: constantly maintains a pool of B
///        instances; each consumed instance is replenished immediately.
///        B = 0 is the pure reactive strategy (Section VII-A1).
#pragma once

#include <cstddef>

#include "rs/simulator/autoscaler.hpp"

namespace rs::baseline {

class BackupPool : public sim::Autoscaler {
 public:
  /// \param pool_size B, the number of instances kept warm.
  explicit BackupPool(std::size_t pool_size) : pool_size_(pool_size) {}

  const char* name() const override { return "BP"; }
  /// BP never reads the arrival history: serving state may drop all of it.
  double history_requirement() const override { return 0.0; }

  sim::ScalingAction Initialize(const sim::SimContext& ctx) override;
  sim::ScalingAction OnQueryArrival(const sim::SimContext& ctx,
                                    bool cold_start) override;

  /// BP is stateless beyond its pool size; the snapshot record carries the
  /// size so the inspector can describe it and restore can cross-check it
  /// against the rebuilt spec.
  Status SerializeModel(persist::Writer* writer) const override;
  Status DeserializeModel(persist::Reader* reader) override;
  /// Prints a kTagBackupPoolModel section field by field (rs_snapshot).
  static Status DescribeModel(persist::Printer* printer);

  std::size_t pool_size() const { return pool_size_; }

 private:
  template <class Io, class Rec>
  friend Status PoolModelFields(Io& io, Rec& pool);

  std::size_t pool_size_;
};

}  // namespace rs::baseline

/// \file adaptive_backup_pool.hpp
/// \brief Adaptive Backup Pool (AdapBP) baseline: every `update_interval`
///        (paper: ten minutes) the pool size is reset to
///        round(recent-QPS-estimate × multiplier) (Section VII-A1).
#pragma once

#include <cstddef>

#include "rs/simulator/autoscaler.hpp"

namespace rs::baseline {

class AdaptiveBackupPool : public sim::Autoscaler {
 public:
  /// \param multiplier     the pre-fixed constant applied to the QPS estimate.
  /// \param update_interval pool-resize period in seconds (paper: 600).
  /// \param estimate_window QPS averaging window in seconds (paper: 600).
  AdaptiveBackupPool(double multiplier, double update_interval = 600.0,
                     double estimate_window = 600.0);

  const char* name() const override { return "AdapBP"; }
  double planning_interval() const override { return update_interval_; }
  /// AdapBP only counts arrivals inside its trailing QPS-estimate window.
  double history_requirement() const override { return estimate_window_; }

  sim::ScalingAction OnPlanningTick(const sim::SimContext& ctx) override;
  sim::ScalingAction OnQueryArrival(const sim::SimContext& ctx,
                                    bool cold_start) override;

  /// AdapBP's mutable model is the currently targeted pool size (the last
  /// OnPlanningTick resize); parameters ride along for the inspector.
  Status SerializeModel(persist::Writer* writer) const override;
  Status DeserializeModel(persist::Reader* reader) override;
  /// Prints a kTagAdaptiveModel section field by field (rs_snapshot).
  static Status DescribeModel(persist::Printer* printer);

  /// Pool size currently targeted (for tests).
  std::size_t current_target() const { return target_; }

 private:
  template <class Io, class Rec>
  friend Status AdaptiveModelFields(Io& io, Rec& pool);

  double multiplier_;
  double update_interval_;
  double estimate_window_;
  std::size_t target_ = 0;
};

}  // namespace rs::baseline
